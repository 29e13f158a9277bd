package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cluster"
)

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.n != 100 || s.p50 != 50 || s.p99 != 99 || s.max != 100 {
		t.Fatalf("summarize(1..100) = %+v, want n 100, p50 50, p99 99, max 100", s)
	}
	if s := summarize([]float64{7}); s.n != 1 || s.p50 != 7 || s.p99 != 7 {
		t.Fatalf("summarize([7]) = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", s)
	}
	// Nearest rank: the p99 of 1000 samples is the 990th, not an
	// interpolation and not a bucket edge.
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.p50 != 500 || s.p99 != 990 {
		t.Fatalf("summarize(1..1000) p50 %v p99 %v, want 500 and 990", s.p50, s.p99)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// spanTree builds
//
//	root  [0,100]
//	├─ a  [10,40] ── c [20,30]
//	├─ b  [35,60]            (overlaps a)
//	└─ d  [90,120]           (runs past the root's end)
//
// plus a detached span x (timed on the far side of a wire).
func spanTree() []span {
	b := &spanBuf{}
	root := b.begin(spPass, noSpan, 0, 1, 0)
	a := b.begin("a", root, 1, 2, 10)
	b.add("c", a, 1, 2, 20, 30)
	b.end(a, "", 40)
	b.add("b", root, 2, 1, 35, 60)
	b.add("d", root, 3, 1, 90, 120)
	b.end(root, "", 100)
	b.add("x", detached, 4, 1, 0, 50)
	return b.spans
}

func TestSelfTime(t *testing.T) {
	tt := aggregate(spanTree(), 0)
	want := map[string]float64{
		spPass: 100 - 60, // children cover [10,60] and [90,100]
		"a":    30 - 10,
		"c":    10,
		"b":    25,
		"d":    30,
		"x":    50,
	}
	for name, self := range want {
		if got := tt.layers[name].self; got != self {
			t.Errorf("self(%s) = %v, want %v", name, got, self)
		}
	}
	if got := tt.layers["a"].weighted; got != 2*20 {
		t.Errorf("weighted self(a) = %v, want 40", got)
	}
	if tt.rootDur != 100 {
		t.Errorf("root duration %v, want 100", tt.rootDur)
	}
	// a and c weigh 2; b and d 1; the detached x is not under the root.
	if want := 2*20 + 2*10 + 25 + 30.0; tt.attributed != want {
		t.Errorf("attributed %v, want %v", tt.attributed, want)
	}

	// Each span pays one clock read, and one more per child; roots are
	// long enough not to be corrected.
	tt = aggregate(spanTree(), 1)
	for name, self := range map[string]float64{spPass: 40, "a": 20 - 2, "c": 10 - 1, "b": 25 - 1} {
		if got := tt.layers[name].self; got != self {
			t.Errorf("clock-corrected self(%s) = %v, want %v", name, got, self)
		}
	}
}

func goodStats() cachesim.Stats {
	return cachesim.Stats{Policy: "p", Accesses: 10, Hits: 7, Misses: 3, SpatialHits: 2, TemporalHits: 5, ItemsLoaded: 9, Evictions: 4}
}

func TestChecksFailOnTamperedStats(t *testing.T) {
	ok := goodStats()
	if err := checkIdentities(ok); err != nil {
		t.Fatalf("checkIdentities(good) = %v", err)
	}
	if err := checkSame(ok, ok); err != nil {
		t.Fatalf("checkSame(good, good) = %v", err)
	}
	if err := checkEngine(ok, 6, 4); err != nil {
		t.Fatalf("checkEngine(good) = %v", err)
	}
	tampered := map[string]func(*cachesim.Stats){
		"hits":     func(s *cachesim.Stats) { s.Hits++ },
		"misses":   func(s *cachesim.Stats) { s.Misses++ },
		"spatial":  func(s *cachesim.Stats) { s.SpatialHits++ },
		"temporal": func(s *cachesim.Stats) { s.TemporalHits-- },
	}
	for name, tamper := range tampered {
		st := ok
		tamper(&st)
		if checkIdentities(st) == nil {
			t.Errorf("checkIdentities accepted tampered %s: %+v", name, st)
		}
		if checkSame(st, ok) == nil {
			t.Errorf("checkSame accepted tampered %s", name)
		}
		if checkEngine(st, 6, 4) == nil {
			t.Errorf("checkEngine accepted tampered %s", name)
		}
	}
	// Consistent, but not what the reference saw.
	other := ok
	other.Evictions++
	if checkSame(other, ok) == nil {
		t.Error("checkSame accepted stats that differ from the reference")
	}
	if checkEngine(ok, 7, 4) == nil {
		t.Error("checkEngine accepted accesses != issued + warmup")
	}
	if err := checkTuner(autotune.State{Requests: 10}, 10); err != nil {
		t.Errorf("checkTuner(good) = %v", err)
	}
	if checkTuner(autotune.State{Requests: 9}, 10) == nil || checkTuner(autotune.State{Requests: 10, Skipped: 1}, 10) == nil {
		t.Error("checkTuner accepted a tuner that missed or skipped requests")
	}
}

func TestChecksFailOnTamperedClientStats(t *testing.T) {
	cs := cluster.ClientStats{Issued: 4, ServedFirstTry: 3, RetriedOK: 1, Attempts: 5, Hits: 6, Misses: 4}
	nodes := cachesim.Stats{Accesses: 10, Hits: 6, Misses: 4}
	if err := checkCluster(cs, nodes, 10); err != nil {
		t.Fatalf("checkCluster(good) = %v", err)
	}
	for name, tamper := range map[string]func(*cluster.ClientStats, *cachesim.Stats, *int64){
		"issued":        func(c *cluster.ClientStats, _ *cachesim.Stats, _ *int64) { c.Issued++ },
		"ack mismatch":  func(c *cluster.ClientStats, _ *cachesim.Stats, _ *int64) { c.AckMismatches = 1 },
		"client hits":   func(c *cluster.ClientStats, _ *cachesim.Stats, _ *int64) { c.Hits++ },
		"node accesses": func(_ *cluster.ClientStats, n *cachesim.Stats, _ *int64) { n.Accesses++ },
		"node hits":     func(_ *cluster.ClientStats, n *cachesim.Stats, _ *int64) { n.Hits++ },
		"acked":         func(_ *cluster.ClientStats, _ *cachesim.Stats, a *int64) { *a-- },
	} {
		c, n, a := cs, nodes, int64(10)
		tamper(&c, &n, &a)
		if checkCluster(c, n, a) == nil {
			t.Errorf("checkCluster accepted tampered %s", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables here in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Fatalf("%d workloads in BENCHMARK.json, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		known := false
		for _, d := range workloads {
			known = known || d.name == w.Name
		}
		if !known || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: known %v, why %d chars", w.Name, known, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
}

// TestRunReportsEveryMetric runs each workload for one second, untraced
// and traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names, with every check passing.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			var out, errOut bytes.Buffer
			code := run(&out, &errOut, options{workload: w.name, seed: 7, seconds: 1, trace: traced, spans: t.TempDir()})
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w.name, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced == 1 {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%d: %+v", w.name, traced, res)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v", w.name, traced, d.name, m)
				}
				if traced == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, options{workload: "nope", seconds: 1}); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}
