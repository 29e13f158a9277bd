package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per layer boundary the benchmark times from outside.
const (
	spPass    = "sim.pass"           // root: one replay pass (sim-*)
	spRound   = "concurrent.round"   // root: one Engine.Replay round
	spBatch   = "cluster.batch"      // root: one client stream's 256-item batch
	spHit     = "core.hit"           // Cache.Access that hit
	spMiss    = "core.miss"          // Cache.Access that missed
	spObserve = "cachesim.observe"   // Recorder.Observe
	spProbe   = "autotune.observe"   // Tuner.Observe of one burst of held events
	spApply   = "autotune.apply"     // Tuner.Apply
	spRoute   = "ring.route"         // Client.Route of one batch
	spDo      = "cluster.do"         // Client.Do of one single-owner sub-batch
	noSpan    = int64(-1)            // parent of a root span
	detached  = int64(-2)            // parent of a span on the far side of the wire
	everyReq  = 256                  // per-request spans cover one request in this many
	idBits    = 32                   // span id = buffer index << idBits | position
	idMask    = int64(1)<<idBits - 1 // position part of a span id
)

// span is one timed call. Per-request spans are sampled; weight is the
// number of requests a span stands for, so weight × self time estimates
// the layer's total.
type span struct {
	id, parent int64
	req        int64 // request index, or pass/round/batch ordinal for roots
	name       string
	start, end int64 // ns since the tracer's base
	weight     int32
}

// spanBuf is an append-only span buffer owned by one goroutine, or by
// whichever goroutine holds the lock that serializes its writer.
type spanBuf struct {
	idx   int64
	spans []span
}

// begin opens a span whose children need its id before it ends.
func (b *spanBuf) begin(name string, parent, req int64, weight int32, start int64) int64 {
	id := b.idx<<idBits | int64(len(b.spans))
	b.spans = append(b.spans, span{id: id, parent: parent, req: req, name: name, start: start, weight: weight})
	return id
}

// end closes span id, renaming it when name is non-empty (an Access
// span learns whether it hit only when the call returns).
func (b *spanBuf) end(id int64, name string, end int64) {
	s := &b.spans[id&idMask]
	s.end = end
	if name != "" {
		s.name = name
	}
}

// add records a span with no children.
func (b *spanBuf) add(name string, parent, req int64, weight int32, start, end int64) {
	b.spans = append(b.spans, span{
		id: b.idx<<idBits | int64(len(b.spans)), parent: parent, req: req,
		name: name, start: start, end: end, weight: weight,
	})
}

// tracer keeps every span in memory until the run ends. Buffers are
// created during set-up, before any goroutine writes to them.
type tracer struct {
	base  time.Time
	clock int64 // cost of one clock read, ns; subtracted from self times
	bufs  []*spanBuf
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.clock = t.calibrate()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{idx: int64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

// calibrate returns the median gap between two back-to-back clock
// reads: what each timed call adds to its own span.
func (t *tracer) calibrate() int64 {
	gaps := make([]float64, 1001)
	for i := range gaps {
		a := t.now()
		gaps[i] = float64(t.now() - a)
	}
	return int64(median(gaps))
}

// spans returns every recorded span, ordered by start time.
func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// layerTotals aggregates the spans of one name.
type layerTotals struct {
	n        int     // spans
	dur      float64 // Σ duration, ns
	self     float64 // Σ self time, ns
	weighted float64 // Σ weight × self time, ns: the estimated layer total
}

// mean returns the mean self time per span, ns.
func (l layerTotals) mean() float64 { return ratio(l.self, float64(l.n)) }

// traceTotals is the per-name aggregate of a span tree, plus the root
// and attributed time the unattributed fraction is computed from.
type traceTotals struct {
	layers     map[string]layerTotals
	rootDur    float64 // Σ root span durations, ns
	attributed float64 // Σ weight × self time of spans under a root, ns
}

// aggregate computes every span's self time: its duration minus the
// part of its interval that its children cover, less the clock reads
// the span and its children added (one per span, and one more per
// child for the parent's reading of the child's two reads). Children
// may overlap each other (workers run in parallel), so coverage is the
// length of their union, clipped to the parent.
func aggregate(spans []span, clock int64) traceTotals {
	children := make(map[int64][]int, len(spans))
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	tt := traceTotals{layers: map[string]layerTotals{}}
	var iv [][2]int64
	for _, s := range spans {
		kids := children[s.id]
		iv = iv[:0]
		for _, k := range kids {
			c := spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := float64(s.end - s.start - union(iv))
		if s.parent != noSpan {
			self -= float64(clock * int64(1+len(kids)))
		}
		self = max(self, 0)
		l := tt.layers[s.name]
		l.n++
		l.dur += float64(s.end - s.start)
		l.self += self
		l.weighted += float64(s.weight) * self
		tt.layers[s.name] = l
		switch {
		case s.parent == noSpan:
			tt.rootDur += float64(s.end - s.start)
		case underRoot(spans, byID, s):
			tt.attributed += float64(s.weight) * self
		}
	}
	return tt
}

// underRoot reports whether s descends from a root span, as opposed to
// a detached span timed on the far side of the wire, whose time its
// caller's span already covers.
func underRoot(spans []span, byID map[int64]int, s span) bool {
	for s.parent >= 0 {
		i, ok := byID[s.parent]
		if !ok {
			return false
		}
		s = spans[i]
	}
	return s.parent == noSpan
}

// union returns the total length covered by the intervals (sorted in
// place).
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	hi = -1 << 62
	for _, x := range iv {
		if x[0] > hi {
			total += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// writeSpans writes the spans as tab-separated rows to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tweight")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, s.weight)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
