package cachesim_test

import (
	"context"
	"fmt"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// strideCtx is a context that reports cancellation from its second Err
// poll on: a replay that polls once every CancelStride accesses stops
// after exactly one stride.
type strideCtx struct {
	context.Context
	polls int
}

func (c *strideCtx) Err() error {
	c.polls++
	if c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// TestRunDifferential is the replay kernel's differential gate: for
// every policy, every runner (Run over the slice, RunStream over a
// SliceSource, RunFile over a gctrace file) and every combination of
// Cold, Universe, Probe and context (live, or cancelled after one
// stride), the Stats must equal those of a hand-written Access/Observe
// loop over the same prefix of the trace, and the probe must be
// detached from the cache afterwards. The cache is always warmed first
// so that Cold's reset is observable; randomized GCM sees the same seed
// and the same warm-up in every replay, so its coin flips line up.
func TestRunDifferential(t *testing.T) {
	geo := model.NewFixed(8)
	const spec = "blockruns:blocks=128,B=8,run=4,len=%d"
	tr, err := workload.FromSpec(fmt.Sprintf(spec, 5*cachesim.CancelStride), 11)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := workload.FromSpec(fmt.Sprintf(spec, 3000), 12)
	if err != nil {
		t.Fatal(err)
	}
	u := model.ItemUniverse(geo, max(tr.Universe(), warm.Universe()))
	path := streamFixture(t, tr)

	policies := []struct {
		name  string
		build func() cachesim.Cache
	}{
		{"item-lru", func() cachesim.Cache { return policy.NewItemLRUBounded(256, u) }},
		{"block-lru", func() cachesim.Cache { return policy.NewBlockLRUBounded(256, geo, u) }},
		{"iblp", func() cachesim.Cache { return core.NewIBLPEvenSplitBounded(256, geo, u) }},
		{"gcm", func() cachesim.Cache { return core.NewGCMBounded(256, geo, 42, u) }},
	}
	runners := []struct {
		name string
		run  func(context.Context, cachesim.Cache, cachesim.RunOptions) (cachesim.Stats, error)
	}{
		{"Run", func(ctx context.Context, c cachesim.Cache, o cachesim.RunOptions) (cachesim.Stats, error) {
			return cachesim.Run(ctx, c, tr, o)
		}},
		{"RunStream", func(ctx context.Context, c cachesim.Cache, o cachesim.RunOptions) (cachesim.Stats, error) {
			return cachesim.RunStream(ctx, c, trace.NewSliceSource(tr), o)
		}},
		{"RunFile", func(ctx context.Context, c cachesim.Cache, o cachesim.RunOptions) (cachesim.Stats, error) {
			return cachesim.RunFile(ctx, c, path, o)
		}},
	}
	// warmed builds a cache and replays the warm-up trace through it
	// unrecorded, resetting it afterwards when cold.
	warmed := func(build func() cachesim.Cache, cold bool) cachesim.Cache {
		c := build()
		for _, it := range warm {
			c.Access(it)
		}
		if cold {
			c.Reset()
		}
		return c
	}

	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			for _, cold := range []bool{false, true} {
				for _, cancelled := range []bool{false, true} {
					n, wantErr := len(tr), error(nil)
					if cancelled {
						n, wantErr = cachesim.CancelStride, context.Canceled
					}
					c := warmed(p.build, cold)
					rec := cachesim.NewRecorder(c.Name())
					for _, it := range tr[:n] {
						rec.Observe(it, c.Access(it))
					}
					want := rec.Stats()

					for _, r := range runners {
						for _, universe := range []int{0, u} {
							for _, probed := range []bool{false, true} {
								name := fmt.Sprintf("%s/cold=%v/universe=%d/probe=%v/cancelled=%v",
									r.name, cold, universe, probed, cancelled)
								var ctx context.Context = context.Background()
								if cancelled {
									ctx = &strideCtx{Context: ctx}
								}
								o := cachesim.RunOptions{Cold: cold, Universe: universe}
								var counters *obs.Counters
								if probed {
									counters = &obs.Counters{}
									o.Probe = counters
								}
								c := warmed(p.build, false)
								got, err := r.run(ctx, c, o)
								if err != wantErr {
									t.Errorf("%s: err = %v, want %v", name, err, wantErr)
								}
								if got != want {
									t.Errorf("%s: stats differ from the Access/Observe loop:\n  got:  %+v\n  want: %+v", name, got, want)
								}
								if counters == nil {
									continue
								}
								if counters.RecorderAccesses() != got.Accesses {
									t.Errorf("%s: probe saw %d recorder accesses, replay made %d", name, counters.RecorderAccesses(), got.Accesses)
								}
								before := counters.Snapshot()
								for _, it := range warm[:64] {
									c.Access(it)
								}
								if counters.Snapshot() != before {
									t.Errorf("%s: probe still attached to the cache after the replay", name)
								}
							}
						}
					}
				}
			}
		})
	}
}
