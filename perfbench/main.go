// Command perfbench is gccache's end-to-end benchmark. For one workload
// it generates the input from a seed, drives the layers through their
// public functions in a closed loop for a fixed time, checks every
// output, and prints the metrics BENCHMARK.json names: the end-to-end
// metrics from an untraced run, or the per-layer metrics from a traced
// run that records spans around the same calls.
//
// Usage, from the repository root (run.py builds and runs it):
//
//	python3 perfbench/run.py --workload serve-engine --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs every workload in turn, each report ending
// with its own result line.
//
// Every line but the last is a comment starting with "#": host
// metadata, set-up phases, latency sample counts, the error rate and
// each metric with its unit. The last line is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 only
// when every correctness check passed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gccache/internal/cachesim"
)

const (
	// setupRepeats is how many times a run sets the workload up; setup_s
	// is the median, and the last instance is the one measured.
	setupRepeats = 7
	// slice is the length of each stretch an untraced run measures on
	// its own. throughput_rps and the latency percentiles are medians
	// over the slices, so a burst of load from elsewhere on the host
	// that covers less than half the window does not move them.
	slice = time.Second
	// traceSlice is the length of each untraced and each traced segment
	// of a traced run. Alternating them cancels drift in the machine's
	// speed out of trace.overhead_frac.
	traceSlice = 500 * time.Millisecond
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

func main() {
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (none if empty)")
	flag.Parse()
	if o.workload != "all" {
		os.Exit(run(os.Stdout, os.Stderr, o))
	}
	code := 0
	for _, w := range workloads {
		o.workload = w.name
		code = max(code, run(os.Stdout, os.Stderr, o))
	}
	os.Exit(code)
}

// result is the last line of the output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// memDelta accumulates runtime.MemStats differences over the untraced
// segments of a traced run.
type memDelta struct{ mallocs, bytes, pauseNs uint64 }

func (m *memDelta) add(before, after *runtime.MemStats) {
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

func run(stdout, stderr io.Writer, o options) int {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need a known -workload, -seconds >= 1 and -trace 0 or 1 (got %q, %d, %d)\n",
			o.workload, o.seconds, o.trace)
		return 2
	}
	traced := o.trace == 1
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "# run workload=%s seed=%d seconds=%d trace=%d\n", def.name, o.seed, o.seconds, o.trace)

	ctx := context.Background()
	var (
		inst  instance
		t     *tracer
		times []setupTimes
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		if traced {
			t = newTracer()
		}
		var st setupTimes
		var err error
		inst, st, err = def.setup(ctx, o.seed, t)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			out.Flush()
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", def.name, err)
			return 1
		}
		times = append(times, st)
	}
	defer inst.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var plain, tracedSeg segment
	var slices []segment
	var mem memDelta
	var runErr error
	if !traced {
		for i := 0; i < o.seconds && runErr == nil; i++ {
			var s segment
			s, runErr = inst.run(ctx, slice, false)
			plain.merge(s)
			slices = append(slices, s)
		}
	} else {
		for i := 0; i < o.seconds && runErr == nil; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := inst.run(ctx, traceSlice, false)
			runtime.ReadMemStats(&after)
			mem.add(&before, &after)
			plain.merge(s)
			if runErr = err; err != nil {
				break
			}
			s, runErr = inst.run(ctx, traceSlice, true)
			tracedSeg.merge(s)
		}
	}
	stats, finErr := inst.finish()
	checkErr := errors.Join(runErr, finErr)

	var setupTotal, input, build, warmup []float64
	for _, st := range times {
		setupTotal = append(setupTotal, st.total().Seconds())
		input = append(input, st.input.Seconds())
		build = append(build, st.build.Seconds())
		warmup = append(warmup, st.warmup.Seconds())
	}
	fmt.Fprintf(out, "# setup runs=%d median_s=%.6f input_s=%.6f build_s=%.6f warmup_s=%.6f\n",
		len(times), median(setupTotal), median(input), median(build), median(warmup))
	attempted, failed := plain.attempted+tracedSeg.attempted, plain.failed+tracedSeg.failed
	fmt.Fprintf(out, "# error_rate = %g ratio (%d failed of %d attempted)\n", ratio(float64(failed), float64(attempted)), failed, attempted)

	m := map[string]float64{}
	defs := endToEnd
	if !traced {
		var thr, p50, p99 []float64
		for _, s := range slices {
			lat := summarize(s.lat)
			thr = append(thr, ratio(float64(s.requests), s.elapsed.Seconds()))
			p50 = append(p50, lat.p50)
			p99 = append(p99, lat.p99)
		}
		fmt.Fprintf(out, "# slices throughput_rps=%.0f latency_p50_us=%.1f latency_p99_us=%.1f\n", thr, p50, p99)
		lat := summarize(plain.lat)
		fmt.Fprintf(out, "# latency samples=%d slices=%d p50_us=%.3f p99_us=%.3f max_us=%.3f over the whole window; window_s=%.3f requests=%d\n",
			lat.n, len(slices), lat.p50, lat.p99, lat.max, plain.elapsed.Seconds(), plain.requests)
		m["throughput_rps"] = median(thr)
		m["miss_ratio"] = stats.MissRatio()
		m["latency_p50_us"] = median(p50)
		m["latency_p99_us"] = median(p99)
		m["setup_s"] = median(setupTotal)
		m["heap_mb"] = heapMB
	} else {
		defs = perLayer
		spans := t.spans()
		tt := aggregate(spans, t.clock)
		fmt.Fprintf(out, "# trace spans=%d clock_ns=%d traced_requests=%d untraced_requests=%d\n",
			len(spans), t.clock, tracedSeg.requests, plain.requests)
		for _, d := range perLayer {
			m[d.name] = 0
		}
		layerMetrics(m, tt, stats, plain, tracedSeg, mem, def.lanes)
		m["setup.input_s"] = median(input)
		m["setup.build_s"] = median(build)
		m["setup.warmup_s"] = median(warmup)
		inst.layers(m, tt, tracedSeg)
		if o.spans != "" {
			path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.tsv", def.name, o.seed))
			if err := writeSpans(path, spans); err != nil {
				out.Flush()
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(out, "# spans written to %s\n", path)
		}
	}

	res := result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: m[d.name], Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(out, "# %s = %g %s (moves %s)\n", d.name, m[d.name], d.unit, d.moves)
		} else {
			fmt.Fprintf(out, "# %s = %g %s\n", d.name, m[d.name], d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if checkErr != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", def.name, checkErr)
		return 1
	}
	return 0
}

// layerMetrics fills the per-layer metrics every workload shares: the
// policy layer's span times and Stats ratios, the runtime's allocations
// over the untraced segments, and the trace's own overhead and coverage.
func layerMetrics(m map[string]float64, tt traceTotals, st cachesim.Stats, plain, traced segment, mem memDelta, lanes int) {
	hit, miss := tt.layers[spHit], tt.layers[spMiss]
	m["core.access_ns"] = ratio(hit.self+miss.self, float64(hit.n+miss.n))
	m["core.hit_ns"] = hit.mean()
	m["core.miss_ns"] = miss.mean()
	m["core.items_loaded_per_miss"] = ratio(float64(st.ItemsLoaded), float64(st.Misses))
	m["core.evictions_per_miss"] = ratio(float64(st.Evictions), float64(st.Misses))
	if st.ItemsLoaded > st.Misses {
		m["core.prefetch_use_frac"] = float64(st.SpatialHits) / float64(st.ItemsLoaded-st.Misses)
	}
	m["cachesim.observe_ns"] = tt.layers[spObserve].mean()
	m["cachesim.spatial_hit_frac"] = ratio(float64(st.SpatialHits), float64(st.Hits))
	m["runtime.allocs_per_req"] = ratio(float64(mem.mallocs), float64(plain.requests))
	m["runtime.alloc_bytes_per_req"] = ratio(float64(mem.bytes), float64(plain.requests))
	m["runtime.gc_pause_ms"] = float64(mem.pauseNs) / 1e6
	thrPlain := ratio(float64(plain.requests), plain.elapsed.Seconds())
	thrTraced := ratio(float64(traced.requests), traced.elapsed.Seconds())
	m["trace.overhead_frac"] = 1 - ratio(thrTraced, thrPlain)
	m["trace.unattributed_frac"] = 1 - ratio(tt.attributed, tt.rootDur*float64(lanes))
}

// cpuModel returns the processor's model name, or the architecture when
// the platform does not say.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
