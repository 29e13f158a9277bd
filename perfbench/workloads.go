package main

import (
	"context"
	_ "embed"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/autotune"
	"gccache/internal/cachesim"
	"gccache/internal/cluster"
	"gccache/internal/cluster/ring"
	"gccache/internal/concurrent"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/scenario"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// Workload shapes. Every workload is closed loop, from this process
// alone, with at most two busy generator goroutines and at most two
// connections, so that the load fits a two-CPU host.
const (
	blockSize    = 64
	simK         = 4096 // capacity of sim-blockruns and serve-engine; in total, of serve-cluster
	hotK         = 512  // capacity of sim-hotcold-tuned; in total, of serve-cluster-tuned
	traceLen     = 1 << 18
	lanes        = 2 // engine producers and shards; cluster client streams and nodes
	clusterBatch = 256
)

// hotcoldSrc is the program of scenarios/hotcold.gcs, frozen here so an
// edit to the corpus cannot silently change the benchmark's input. The
// scenario's own seed statement is dropped: the benchmark seed decides.
//
//go:embed hotcold.gcs
var hotcoldSrc string

// workloadDef names a workload and builds instances of it.
type workloadDef struct {
	name string
	// lanes is how many spans run side by side under one root span, for
	// the unattributed fraction: the engine's workers share each round.
	lanes int
	setup func(ctx context.Context, seed int64, t *tracer) (instance, setupTimes, error)
}

// workloads are every workload the command runs. BENCHMARK.json lists
// two of them, serve-engine and serve-cluster-tuned, which between them
// run every layer: the engine, shards and Recorder on one, the ring,
// wire, nodes and the §5.3 tuner on the other, and the policy on both.
// On a shared two-CPU host whose speed drifts from minute to minute,
// fewer workloads leave room for runs long enough that the median over
// one-second slices settles, while ten runs of one workload still end
// within a few minutes of each other. The two sim workloads run one
// memory-bound replay on one CPU and follow the neighbours' load: their
// throughput spread 20-50% between runs. Run them, and serve-cluster
// (serve-cluster-tuned's shape over the BlockRuns trace, without the
// tuner), by name.
var workloads = []workloadDef{
	{name: "sim-blockruns", lanes: 1, setup: setupSimBlockRuns},
	{name: "sim-hotcold-tuned", lanes: 1, setup: setupSimHotCold},
	{name: "serve-engine", lanes: lanes, setup: setupServeEngine},
	{name: "serve-cluster", lanes: 1, setup: clusterSetup(blockRunsTrace, simK, false)},
	{name: "serve-cluster-tuned", lanes: 1, setup: clusterSetup(hotcoldTrace, hotK, true)},
}

// instance is one set-up workload. A nil tracer at set-up means the run
// is untraced; otherwise run alternates untraced and traced segments.
type instance interface {
	// run drives the closed loop for about d, recording spans when
	// traced. A failed correctness check is returned as the error.
	run(ctx context.Context, d time.Duration, traced bool) (segment, error)
	// finish runs the end-of-run correctness checks and returns the
	// statistics miss_ratio and the core ratios come from.
	finish() (cachesim.Stats, error)
	// layers adds the workload's own per-layer metrics.
	layers(m map[string]float64, tt traceTotals, traced segment)
	close()
}

// segment is what one stretch of the closed loop did.
type segment struct {
	elapsed   time.Duration
	requests  int64
	attempted int64 // operations: requests, or Client.Do batches
	failed    int64
	lat       []float64 // µs per unit of work: a pass, a round or a batch
}

func (s *segment) merge(o segment) {
	s.elapsed += o.elapsed
	s.requests += o.requests
	s.attempted += o.attempted
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
}

// setupTimes splits set-up into its phases.
type setupTimes struct{ input, build, warmup time.Duration }

func (s setupTimes) total() time.Duration { return s.input + s.build + s.warmup }

// lap measures consecutive phases.
type lap struct{ t time.Time }

func startLap() lap { return lap{time.Now()} }

func (l *lap) next() time.Duration {
	now := time.Now()
	d := now.Sub(l.t)
	l.t = now
	return d
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perMillion(n, requests int64) float64 { return ratio(float64(n)*1e6, float64(requests)) }

func blockRunsTrace(seed int64) (trace.Trace, error) {
	return workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 4096, BlockSize: blockSize, MeanRunLength: 8, ZipfS: 1.2, Length: traceLen, Seed: seed,
	})
}

func outcome(a cachesim.Access) string {
	if a.Hit {
		return spHit
	}
	return spMiss
}

// ---- sim-blockruns -------------------------------------------------

// simBlockRuns replays the BlockRuns trace cold through dense even-split
// IBLP in whole passes, as gcsim, gcrepro and Sweep do.
type simBlockRuns struct {
	tr       trace.Trace
	universe int
	c        *core.IBLP
	ref      cachesim.Stats
	passes   int64
	t        *tracer
	buf      *spanBuf
}

func setupSimBlockRuns(_ context.Context, seed int64, t *tracer) (instance, setupTimes, error) {
	var st setupTimes
	l := startLap()
	tr, err := blockRunsTrace(seed)
	if err != nil {
		return nil, st, err
	}
	st.input = l.next()
	geo := model.NewFixed(blockSize)
	universe := model.ItemUniverse(geo, tr.Universe())
	w := &simBlockRuns{tr: tr, universe: universe, c: core.NewIBLPEvenSplitBounded(simK, geo, universe), t: t}
	if t != nil {
		w.buf = t.buf()
	}
	st.build = l.next()
	w.ref = cachesim.RunColdBounded(w.c, tr, universe)
	st.warmup = l.next()
	return w, st, checkIdentities(w.ref)
}

func (w *simBlockRuns) run(_ context.Context, d time.Duration, traced bool) (segment, error) {
	var seg segment
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		var st cachesim.Stats
		if traced {
			st = w.tracedPass()
		} else {
			st = cachesim.RunColdBounded(w.c, w.tr, w.universe)
		}
		seg.lat = append(seg.lat, micros(time.Since(t0)))
		if err := checkSame(st, w.ref); err != nil {
			return seg, fmt.Errorf("pass %d: %w", w.passes, err)
		}
		w.passes++
		seg.requests += int64(len(w.tr))
	}
	seg.elapsed = time.Since(start)
	seg.attempted = seg.requests
	return seg, nil
}

// tracedPass is cachesim.RunColdBounded with spans around Access and
// Observe on one request in everyReq. checkSame holds it to the same
// result as the library loop.
func (w *simBlockRuns) tracedPass() cachesim.Stats {
	t, b := w.t, w.buf
	root := b.begin(spPass, noSpan, w.passes, 1, t.now())
	w.c.Reset()
	rec := cachesim.NewRecorderBounded(w.c.Name(), w.universe)
	off := int(w.passes % everyReq)
	for i, it := range w.tr {
		if (i+off)%everyReq != 0 {
			rec.Observe(it, w.c.Access(it))
			continue
		}
		t0 := t.now()
		a := w.c.Access(it)
		t1 := t.now()
		rec.Observe(it, a)
		t2 := t.now()
		b.add(outcome(a), root, int64(i), everyReq, t0, t1)
		b.add(spObserve, root, int64(i), everyReq, t1, t2)
	}
	b.end(root, "", t.now())
	return rec.Stats()
}

func (w *simBlockRuns) finish() (cachesim.Stats, error) { return w.ref, nil }

func (w *simBlockRuns) layers(map[string]float64, traceTotals, segment) {}

func (w *simBlockRuns) close() {}

// ---- sim-hotcold-tuned ---------------------------------------------

// simHotCold replays the hotcold scenario through dense even-split IBLP
// with the §5.3 autotuner attached, via autotune.Drive, in whole passes.
// Each pass starts from a fresh tuner and the even split, so every pass
// must reproduce the set-up reference exactly.
type simHotCold struct {
	tr       trace.Trace
	c        *core.IBLP
	cfg      autotune.Config
	ref      cachesim.Stats
	refTuner autotune.State
	passes   int64
	t        *tracer
	buf      *spanBuf
	probe    *stridedProbe
}

// hotcoldTrace compiles the frozen hotcold program under seed.
func hotcoldTrace(seed int64) (trace.Trace, error) {
	prog, err := scenario.Parse("hotcold.gcs", hotcoldSrc)
	if err != nil {
		return nil, err
	}
	if _, err := scenario.Check(prog); err != nil {
		return nil, err
	}
	return scenario.Trace(prog, seed)
}

func setupSimHotCold(_ context.Context, seed int64, t *tracer) (instance, setupTimes, error) {
	var st setupTimes
	l := startLap()
	tr, err := hotcoldTrace(seed)
	if err != nil {
		return nil, st, err
	}
	st.input = l.next()
	geo := model.NewFixed(blockSize)
	universe := model.ItemUniverse(geo, tr.Universe())
	w := &simHotCold{
		tr:  tr,
		c:   core.NewIBLPEvenSplitBounded(hotK, geo, universe),
		cfg: autotune.Config{K: hotK, B: blockSize, Geometry: geo, Universe: universe},
		t:   t,
	}
	if t != nil {
		w.buf = t.buf()
		w.probe = &stridedProbe{}
	}
	tn, err := autotune.New(w.cfg)
	if err != nil {
		return nil, st, err
	}
	st.build = l.next()
	w.ref = autotune.Drive(w.c, tn, tr, 0)
	w.refTuner = tn.State()
	st.warmup = l.next()
	return w, st, checkIdentities(w.ref)
}

func (w *simHotCold) run(_ context.Context, d time.Duration, traced bool) (segment, error) {
	var seg segment
	start := time.Now()
	for time.Since(start) < d {
		// Restoring the even split and building a fresh tuner are part of
		// starting a new replay, not of serving it, so they are untimed.
		w.c.SetItemLayerTarget(hotK / 2)
		tn, err := autotune.New(w.cfg)
		if err != nil {
			return seg, err
		}
		t0 := time.Now()
		var st cachesim.Stats
		if traced {
			st = w.tracedPass(tn)
		} else {
			st = autotune.Drive(w.c, tn, w.tr, 0)
		}
		seg.lat = append(seg.lat, micros(time.Since(t0)))
		seg.elapsed += time.Since(t0)
		if err := checkSame(st, w.ref); err != nil {
			return seg, fmt.Errorf("pass %d: %w", w.passes, err)
		}
		ts := tn.State()
		if ts.Windows != w.refTuner.Windows || ts.Resizes != w.refTuner.Resizes {
			return seg, fmt.Errorf("pass %d: tuner ran %d windows with %d resizes, reference %d and %d",
				w.passes, ts.Windows, ts.Resizes, w.refTuner.Windows, w.refTuner.Resizes)
		}
		w.passes++
		seg.requests += int64(len(w.tr))
	}
	seg.attempted = seg.requests
	return seg, nil
}

// tracedPass is autotune.Drive with spans around Access and Observe on
// one request in everyReq and around every Apply. The tuner's own work
// is timed per apply stride through a stridedProbe, flushed just before
// each Apply; checkSame and the tuner check in run hold the pass to
// Drive's result.
func (w *simHotCold) tracedPass(tn *autotune.Tuner) cachesim.Stats {
	t, b, p := w.t, w.buf, w.probe
	root := b.begin(spPass, noSpan, w.passes, 1, t.now())
	p.inner = tn
	p.traced = true
	tn.SetLiveTarget(w.c.ItemLayerTarget())
	w.c.SetProbe(p)
	w.c.Reset()
	rec := cachesim.NewRecorderBounded(w.c.Name(), tn.Universe())
	off := int(w.passes % everyReq)
	for i, it := range w.tr {
		if (i+off)%everyReq != 0 {
			rec.Observe(it, w.c.Access(it))
		} else {
			t0 := t.now()
			a := w.c.Access(it)
			t1 := t.now()
			rec.Observe(it, a)
			b.add(outcome(a), root, int64(i), everyReq, t0, t1)
			b.add(spObserve, root, int64(i), everyReq, t1, t.now())
		}
		if (i+1)%autotune.DefaultApplyStride == 0 {
			p.flushTimed(t, b, root, int64(i))
			t0 := t.now()
			p.apply(tn, w.c)
			b.add(spApply, root, int64(i), 1, t0, t.now())
		}
	}
	p.flushTimed(t, b, root, int64(len(w.tr)))
	p.traced = false
	w.c.SetProbe(nil)
	b.end(root, "", t.now())
	return rec.Stats()
}

func (w *simHotCold) finish() (cachesim.Stats, error) { return w.ref, nil }

func (w *simHotCold) layers(m map[string]float64, tt traceTotals, traced segment) {
	m["autotune.observe_ns_per_req"] = ratio(tt.layers[spProbe].self, float64(traced.requests))
	m["autotune.events_per_req"] = ratio(float64(w.probe.events), float64(traced.requests))
	m["autotune.apply_ns"] = tt.layers[spApply].mean()
	// Every pass reproduces the reference tuner's windows and resizes.
	m["autotune.windows"] = perMillion(w.refTuner.Windows, int64(len(w.tr)))
	m["autotune.resizes"] = perMillion(w.refTuner.Resizes, int64(len(w.tr)))
}

func (w *simHotCold) close() {}

// stridedProbe stands between a policy and its tuner in a traced run.
// While traced it counts every event and holds it until flush, which
// hands the held events to the tuner in one burst the caller times. The
// tuner runs inside the policy's Access, so timing it in place would
// leave its cost inside the Access span; holding the events moves it
// outside, and costs two clock reads per burst rather than per event.
// A probe may not call back into the cache, so the tuner sees the same
// events in the same order as without the wrapper, only up to one
// stride later, and every Apply is preceded by a flush. During apply,
// events go straight through, because the resize's own event must reach
// the tuner at once, as under Drive. Untraced, every event goes
// straight through.
//
// It is used under the lock that serializes the policy's Access.
type stridedProbe struct {
	inner                           obs.Probe
	held                            []obs.Event
	traced, direct                  bool
	events, misses, loaded, evicted int64 // counted while traced
}

func (p *stridedProbe) Observe(e obs.Event) {
	if !p.traced {
		p.inner.Observe(e)
		return
	}
	p.events++
	switch e.Kind {
	case obs.EvBlockLoad:
		p.misses++
	case obs.EvLoad:
		p.loaded++
	case obs.EvEvict:
		p.evicted++
	}
	if p.direct {
		p.inner.Observe(e)
		return
	}
	p.held = append(p.held, e)
}

// flushTimed hands the held events to the tuner and records the burst
// as one autotune.observe span in b.
func (p *stridedProbe) flushTimed(t *tracer, b *spanBuf, parent, req int64) {
	if len(p.held) == 0 {
		return
	}
	t0 := t.now()
	for _, e := range p.held {
		p.inner.Observe(e)
	}
	p.held = p.held[:0]
	b.add(spProbe, parent, req, 1, t0, t.now())
}

// apply enacts the tuner's pending resize on rz, passing the resize's
// events straight through. The held events must be flushed first.
func (p *stridedProbe) apply(tn *autotune.Tuner, rz cachesim.LayerResizable) {
	p.direct = true
	tn.Apply(rz)
	p.direct = false
}

// timedCache times one Access in everyReq while parent is set. Its
// buffer is written only under the lock that serializes Access (a shard
// or node mutex).
//
// With acquired set (the engine's shards), it also times the shard's
// Recorder.Observe of a sampled access: the engine's batch loop calls
// Access and Observe alternately under one lock acquisition, so the gap
// from the end of a sampled Access to the start of the next Access is
// that Observe, provided the shard's lock was not released in between
// (the sampled access ended its batch); those samples are dropped. The
// sampled Access's span is then recorded at the next access too, so
// that growing the span buffer stays outside the timed gap.
//
// With probe set (a tuned node), it flushes the probe's held events
// just before each sampled Access, outside the Access span.
type timedCache struct {
	cachesim.Cache
	t        *tracer
	buf      *spanBuf
	parent   atomic.Int64 // span the accesses belong to; noSpan when untraced
	n        int64        // accesses while traced
	probe    *stridedProbe
	acquired func() int64 // the shard's lock acquisitions so far
	lock     int64        // acquired at the last sampled access
	open     span         // the last sampled access, while its Observe is timed
	pending  bool         // open is not recorded yet
}

func newTimedCache(c cachesim.Cache, t *tracer) *timedCache {
	tc := &timedCache{Cache: c, t: t, buf: t.buf()}
	tc.parent.Store(noSpan)
	return tc
}

func (c *timedCache) Access(it model.Item) cachesim.Access {
	p := c.parent.Load()
	if p == noSpan {
		return c.Cache.Access(it)
	}
	if c.pending {
		t := c.t.now()
		o := c.open
		c.pending = false
		c.buf.add(o.name, o.parent, o.req, o.weight, o.start, o.end)
		if c.acquired() == c.lock {
			c.buf.add(spObserve, o.parent, o.req, o.weight, o.end, t)
		}
	}
	c.n++
	if c.n%everyReq != 0 {
		return c.Cache.Access(it)
	}
	if c.probe != nil {
		c.probe.flushTimed(c.t, c.buf, detached, c.n)
	}
	if c.acquired != nil {
		c.lock = c.acquired()
	}
	t0 := c.t.now()
	a := c.Cache.Access(it)
	t1 := c.t.now()
	if c.acquired == nil {
		c.buf.add(outcome(a), p, c.n, everyReq, t0, t1)
		return a
	}
	c.open = span{parent: p, req: c.n, name: outcome(a), start: t0, end: t1, weight: everyReq}
	c.pending = true
	return a
}

// ---- serve-engine --------------------------------------------------

// serveEngine replays two SplitStreams producer streams of the BlockRuns
// trace through a persistent Engine over a two-shard bounded IBLP cache.
type serveEngine struct {
	s       *concurrent.Sharded
	e       *concurrent.Engine
	streams []trace.Trace
	n       int64 // requests per round
	warmup  int64
	issued  int64
	last    int64 // cumulative accesses after the previous round
	rounds  int64
	timed   []*timedCache
	t       *tracer
	buf     *spanBuf
}

func setupServeEngine(ctx context.Context, seed int64, t *tracer) (instance, setupTimes, error) {
	var st setupTimes
	l := startLap()
	tr, err := blockRunsTrace(seed)
	if err != nil {
		return nil, st, err
	}
	w := &serveEngine{streams: concurrent.SplitStreams(tr, lanes), n: int64(len(tr)), t: t}
	st.input = l.next()
	geo := model.NewFixed(blockSize)
	universe := model.ItemUniverse(geo, tr.Universe())
	build := func(k int) cachesim.Cache {
		c := core.NewIBLPEvenSplitBounded(k, geo, universe)
		if t == nil {
			return c
		}
		tc := newTimedCache(c, t)
		w.timed = append(w.timed, tc)
		return tc
	}
	if w.s, err = concurrent.NewShardedBounded(lanes, simK, geo, universe, build); err != nil {
		return nil, st, err
	}
	for i, tc := range w.timed {
		tc.acquired = func() int64 { return w.s.ShardLoads()[i].Acquired }
	}
	if w.e, err = concurrent.NewEngine(w.s, lanes, concurrent.BatchConfig{}); err != nil {
		return nil, st, err
	}
	if t != nil {
		w.buf = t.buf()
	}
	st.build = l.next()
	ws, err := w.e.Replay(ctx, w.streams)
	if err != nil {
		w.close()
		return nil, st, err
	}
	w.warmup, w.last = ws.Accesses, ws.Accesses
	st.warmup = l.next()
	return w, st, nil
}

func (w *serveEngine) run(ctx context.Context, d time.Duration, traced bool) (segment, error) {
	var seg segment
	start := time.Now()
	for time.Since(start) < d {
		root := noSpan
		if traced {
			root = w.buf.begin(spRound, noSpan, w.rounds, 1, w.t.now())
			for _, tc := range w.timed {
				tc.parent.Store(root)
			}
		}
		t0 := time.Now()
		st, err := w.e.Replay(ctx, w.streams)
		seg.lat = append(seg.lat, micros(time.Since(t0)))
		if traced {
			w.buf.end(root, "", w.t.now())
			for _, tc := range w.timed {
				tc.parent.Store(noSpan)
			}
		}
		if err != nil {
			return seg, fmt.Errorf("round %d: %w", w.rounds, err)
		}
		if got := st.Accesses - w.last; got != w.n {
			return seg, fmt.Errorf("round %d served %d requests, want %d", w.rounds, got, w.n)
		}
		w.last = st.Accesses
		w.rounds++
		w.issued += w.n
		seg.requests += w.n
	}
	seg.elapsed = time.Since(start)
	seg.attempted = seg.requests
	return seg, nil
}

func (w *serveEngine) finish() (cachesim.Stats, error) {
	st := w.s.Stats()
	return st, checkEngine(st, w.issued, w.warmup)
}

func (w *serveEngine) layers(m map[string]float64, tt traceTotals, traced segment) {
	policy := ratio(tt.layers[spHit].weighted+tt.layers[spMiss].weighted, float64(traced.requests))
	// Every request is observed once; the samples that ended a batch
	// were dropped, so the mean stands for all of them.
	observe := tt.layers[spObserve].mean()
	round := tt.layers[spRound]
	m["concurrent.round_ms"] = ratio(round.dur, float64(round.n)) / 1e6
	m["concurrent.policy_ns_per_req"] = policy
	// Worker time per request spent neither in the policy nor in the
	// shard's Recorder.Observe: routing, rings, hand-off and locks.
	m["concurrent.engine_self_ns_per_req"] = ratio(round.dur*float64(w.s.NumShards()), float64(traced.requests)) - policy - observe
	var acquired, contended int64
	for _, l := range w.s.ShardLoads() {
		acquired += l.Acquired
		contended += l.Contended
	}
	m["concurrent.accesses_per_lock"] = ratio(float64(w.s.Stats().Accesses), float64(acquired))
	m["concurrent.lock_contended_frac"] = ratio(float64(contended), float64(acquired))
	// Skew is measured on accesses, not lock acquisitions: every routed
	// chunk takes each shard's lock once, so acquisitions are always even
	// while the work behind them is not.
	var total, most int64
	for _, tc := range w.timed {
		total += tc.n
		most = max(most, tc.n)
	}
	m["concurrent.shard_skew"] = ratio(float64(most)*float64(len(w.timed)), float64(total))
}

func (w *serveEngine) close() { w.e.Close() }

// ---- serve-cluster -------------------------------------------------

// applyPeriod is how often a tuned cluster's control plane looks for a
// pending resize, as gcserve's cluster mode does.
const applyPeriod = 50 * time.Millisecond

// serveCluster drives two in-process cluster nodes on loopback through a
// seeded-ring client: two client streams of the input trace, each
// routing 256-item batches and issuing one Client.Do per owning node.
// When tuned, each node's policy has its own §5.3 tuner attached as a
// probe, and a control-plane goroutine applies pending resizes under
// the node's lock the way gcserve's cluster mode does.
type serveCluster struct {
	nodes    []*cluster.Node
	timed    []*timedCache
	client   *cluster.Client
	streams  []*clientStream
	acked    int64 // items acked, warmup included
	t        *tracer
	tuners   []*autotune.Tuner // per node, when tuned
	policies []*core.IBLP
	probes   []*stridedProbe // per node, when tuned and traced
}

// clientStream is one closed-loop client: it sends its next batch only
// after the previous one is acked.
type clientStream struct {
	items   trace.Trace
	pos     int
	batch   []model.Item
	groups  map[int][]model.Item
	batches int64
	buf     *spanBuf
}

// clusterSetup returns the set-up of a cluster workload over input
// with k items of capacity split across the nodes.
func clusterSetup(input func(seed int64) (trace.Trace, error), k int, tuned bool) func(context.Context, int64, *tracer) (instance, setupTimes, error) {
	return func(ctx context.Context, seed int64, t *tracer) (instance, setupTimes, error) {
		var st setupTimes
		l := startLap()
		tr, err := input(seed)
		if err != nil {
			return nil, st, err
		}
		w := &serveCluster{t: t}
		for _, s := range concurrent.SplitStreams(tr, lanes) {
			cs := &clientStream{items: s, batch: make([]model.Item, 0, clusterBatch), groups: map[int][]model.Item{}}
			if t != nil {
				cs.buf = t.buf()
			}
			w.streams = append(w.streams, cs)
		}
		st.input = l.next()
		geo := model.NewFixed(blockSize)
		universe := model.ItemUniverse(geo, tr.Universe())
		addrs := make([]string, lanes)
		for i := range addrs {
			var policy *core.IBLP
			n, err := cluster.NewNode(cluster.NodeConfig{
				Addr: "127.0.0.1:0", K: k / lanes, B: blockSize, Universe: universe,
				NewCache: func() cachesim.Cache {
					policy = core.NewIBLPEvenSplitBounded(k/lanes, geo, universe)
					if t == nil {
						return policy
					}
					tc := newTimedCache(policy, t)
					w.timed = append(w.timed, tc)
					return tc
				},
			})
			if err == nil {
				addrs[i], err = n.Start()
				w.nodes = append(w.nodes, n)
			}
			if err == nil && tuned {
				err = w.attachTuner(n, policy, autotune.Config{K: k / lanes, B: blockSize, Geometry: geo, Universe: universe})
			}
			if err != nil {
				w.close()
				return nil, st, err
			}
		}
		r, err := ring.New(addrs, cluster.DefaultReplicas, seed)
		if err != nil {
			w.close()
			return nil, st, err
		}
		w.client = cluster.NewClient(r, cluster.ClientConfig{Timeout: 2 * time.Second, Retries: 2, Seed: seed})
		st.build = l.next()
		warm, err := w.drive(ctx, time.Time{}, false)
		if err == nil && warm.failed > 0 {
			err = fmt.Errorf("warmup: %d of %d batches failed", warm.failed, warm.attempted)
		}
		if err != nil {
			w.close()
			return nil, st, err
		}
		st.warmup = l.next()
		return w, st, nil
	}
}

// attachTuner gives node n's policy a tuner of its own, attached under
// the node's lock as gcserve's cluster mode does. A traced run puts a
// stridedProbe between the two, flushed by the node's timedCache.
func (w *serveCluster) attachTuner(n *cluster.Node, policy *core.IBLP, cfg autotune.Config) error {
	tn, err := autotune.New(cfg)
	if err != nil {
		return err
	}
	var p obs.Probe = tn
	if w.t != nil {
		sp := &stridedProbe{inner: tn}
		w.timed[len(w.timed)-1].probe = sp
		w.probes = append(w.probes, sp)
		p = sp
	}
	n.WithCache(func(cachesim.Cache) {
		tn.SetLiveTarget(policy.ItemLayerTarget())
		policy.SetProbe(p)
	})
	w.tuners = append(w.tuners, tn)
	w.policies = append(w.policies, policy)
	return nil
}

func (w *serveCluster) run(ctx context.Context, d time.Duration, traced bool) (segment, error) {
	for i, tc := range w.timed {
		if traced {
			tc.parent.Store(detached)
		} else {
			tc.parent.Store(noSpan)
		}
		if w.probes != nil {
			w.nodes[i].WithCache(func(cachesim.Cache) { w.probes[i].traced = traced })
		}
	}
	start := time.Now()
	seg, err := w.drive(ctx, start.Add(d), traced)
	seg.elapsed = time.Since(start)
	// Hand the tuners what they still hold, so every event of the
	// segment is timed and none waits into the next one.
	for i, p := range w.probes {
		w.nodes[i].WithCache(func(cachesim.Cache) {
			p.flushTimed(w.t, w.timed[i].buf, detached, w.timed[i].n)
			p.traced = false
		})
	}
	return seg, err
}

// drive runs both client streams until deadline, or for one pass over
// each stream when deadline is zero (the warmup). A tuned cluster's
// control plane runs alongside.
func (w *serveCluster) drive(ctx context.Context, deadline time.Time, traced bool) (segment, error) {
	segs := make([]segment, len(w.streams))
	errs := make([]error, len(w.streams))
	var wg sync.WaitGroup
	for i, cs := range w.streams {
		wg.Add(1)
		go func(i int, cs *clientStream) {
			defer wg.Done()
			segs[i], errs[i] = w.stream(ctx, cs, deadline, traced)
		}(i, cs)
	}
	stop := make(chan struct{})
	var ctl sync.WaitGroup
	if w.tuners != nil {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			w.applyLoop(stop)
		}()
	}
	wg.Wait()
	close(stop)
	ctl.Wait()
	var seg segment
	for i := range segs {
		seg.merge(segs[i])
		if errs[i] != nil {
			return seg, errs[i]
		}
	}
	w.acked += seg.requests
	return seg, nil
}

// applyLoop is gcserve's cluster-mode control plane: every applyPeriod
// it peeks each node's tuner for a pending resize, which takes no node
// lock, and only when one is pending applies it under the node's lock.
// In a traced segment the tuner's held events are flushed first, and
// the flush and the Apply are recorded on the node's span buffer, which
// the node's lock guards.
func (w *serveCluster) applyLoop(stop <-chan struct{}) {
	tick := time.NewTicker(applyPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for i, tn := range w.tuners {
			if _, ok := tn.Pending(); !ok {
				continue
			}
			w.nodes[i].WithCache(func(cachesim.Cache) {
				if w.probes == nil {
					tn.Apply(w.policies[i])
					return
				}
				p, tc := w.probes[i], w.timed[i]
				if !p.traced {
					p.apply(tn, w.policies[i])
					return
				}
				p.flushTimed(w.t, tc.buf, detached, tc.n)
				t0 := w.t.now()
				p.apply(tn, w.policies[i])
				tc.buf.add(spApply, detached, tc.n, 1, t0, w.t.now())
			})
		}
	}
}

func (w *serveCluster) stream(ctx context.Context, cs *clientStream, deadline time.Time, traced bool) (segment, error) {
	var seg segment
	t := w.t
	sent := 0
	for {
		if deadline.IsZero() {
			if sent >= len(cs.items) {
				return seg, nil
			}
		} else if !time.Now().Before(deadline) {
			return seg, nil
		}
		if err := ctx.Err(); err != nil {
			return seg, err
		}
		cs.batch = cs.batch[:0]
		for len(cs.batch) < clusterBatch {
			cs.batch = append(cs.batch, cs.items[cs.pos])
			cs.pos = (cs.pos + 1) % len(cs.items)
		}
		sent += len(cs.batch)
		for k := range cs.groups {
			cs.groups[k] = cs.groups[k][:0]
		}
		root := noSpan
		if traced {
			root = cs.buf.begin(spBatch, noSpan, cs.batches, 1, t.now())
			t0 := t.now()
			w.client.Route(cs.batch, cs.groups)
			cs.buf.add(spRoute, root, cs.batches, 1, t0, t.now())
		} else {
			w.client.Route(cs.batch, cs.groups)
		}
		for node := range w.nodes {
			g := cs.groups[node]
			if len(g) == 0 {
				continue
			}
			var s0 int64
			if traced {
				s0 = t.now()
			}
			t0 := time.Now()
			err := w.client.Do(g)
			seg.lat = append(seg.lat, micros(time.Since(t0)))
			if traced {
				cs.buf.add(spDo, root, cs.batches, 1, s0, t.now())
			}
			seg.attempted++
			if err != nil {
				seg.failed++
			} else {
				seg.requests += int64(len(g))
			}
		}
		if traced {
			cs.buf.end(root, "", t.now())
		}
		cs.batches++
	}
}

func (w *serveCluster) finish() (cachesim.Stats, error) {
	var nodes cachesim.Stats
	for _, n := range w.nodes {
		nodes.Add(n.Stats())
	}
	err := checkCluster(w.client.Stats(), nodes, w.acked)
	for i, tn := range w.tuners {
		if err == nil {
			err = checkTuner(tn.State(), w.nodes[i].Stats().Accesses)
		}
	}
	return nodes, err
}

func (w *serveCluster) layers(m map[string]float64, tt traceTotals, traced segment) {
	do, route := tt.layers[spDo], tt.layers[spRoute]
	// The node applies a batch by running the policy and, when tuned,
	// the tuner over the policy's events.
	apply := ratio(tt.layers[spHit].weighted+tt.layers[spMiss].weighted+tt.layers[spProbe].self, float64(do.n)) / 1e3
	m["ring.route_ns_per_item"] = ratio(route.self, float64(route.n*clusterBatch))
	m["cluster.node_apply_us"] = apply
	m["cluster.wire_self_us"] = do.mean()/1e3 - apply
	cs := w.client.Stats()
	m["cluster.attempts_per_batch"] = ratio(float64(cs.Attempts), float64(cs.Issued))
	m["cluster.retried_frac"] = ratio(float64(cs.RetriedOK), float64(cs.Issued))
	m["cluster.failovers"] = float64(cs.Failovers)
	m["cluster.breaker_skips"] = float64(cs.BreakerSkips)
	if w.tuners == nil {
		return
	}
	// Nodes keep no loads or evictions in their Stats; the policy's own
	// events, counted while traced, give the miss path's ratios.
	var events, misses, loaded, evicted, windows, resizes, requests int64
	for _, p := range w.probes {
		events, misses, loaded, evicted = events+p.events, misses+p.misses, loaded+p.loaded, evicted+p.evicted
	}
	for _, tn := range w.tuners {
		s := tn.State()
		windows, resizes, requests = windows+s.Windows, resizes+s.Resizes, requests+s.Requests
	}
	m["core.items_loaded_per_miss"] = ratio(float64(loaded), float64(misses))
	m["core.evictions_per_miss"] = ratio(float64(evicted), float64(misses))
	m["autotune.observe_ns_per_req"] = ratio(tt.layers[spProbe].self, float64(traced.requests))
	m["autotune.events_per_req"] = ratio(float64(events), float64(traced.requests))
	m["autotune.apply_ns"] = tt.layers[spApply].mean()
	m["autotune.windows"] = perMillion(windows, requests)
	m["autotune.resizes"] = perMillion(resizes, requests)
}

func (w *serveCluster) close() {
	if w.client != nil {
		w.client.Close()
	}
	for _, n := range w.nodes {
		n.Close()
	}
}
