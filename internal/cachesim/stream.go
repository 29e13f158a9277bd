package cachesim

import (
	"context"
	"fmt"
	"os"

	"gccache/internal/trace"
)

// This file is the streaming half of the trace runner: Run requires the
// whole trace.Trace resident in memory, RunStream replays straight off a
// trace.Source (typically a trace.Scanner over a file) in O(1) memory.
// Statistics are identical — the stream-vs-slice differential tests
// assert byte-identical Stats — and the per-access path keeps the
// zero-allocation budget of the dense in-memory replay.

// RunStream replays src through c under o and returns the statistics
// together with the source's terminal error. A nil error means the
// whole stream was replayed; on a source error, or when ctx ends (polled
// on the same stride as Run), the statistics cover the requests replayed
// before the stop. The loop must stay allocation-free per access (the
// ZeroAlloc regression tests pin it).
func RunStream(ctx context.Context, c Cache, src trace.Source, o RunOptions) (Stats, error) {
	rec := o.begin(c)
	defer o.end(c)
	for i := 0; src.Next(); i++ {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return rec.Stats(), err
			}
		}
		it := src.Item()
		rec.Observe(it, c.Access(it))
	}
	return rec.Stats(), src.Err()
}

// RunFile opens path, streams the gctrace binary format through c under
// o, and closes the file — the one-call entry point for replaying traces
// larger than memory.
func RunFile(ctx context.Context, c Cache, path string, o RunOptions) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{Policy: c.Name()}, fmt.Errorf("cachesim: open trace: %w", err)
	}
	defer f.Close()
	sc, err := trace.NewScanner(f)
	if err != nil {
		return Stats{Policy: c.Name()}, err
	}
	return RunStream(ctx, c, sc, o)
}
