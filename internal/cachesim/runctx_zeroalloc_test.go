package cachesim

import (
	"context"
	"testing"

	"gccache/internal/model"
	"gccache/internal/trace"
)

// hitCache hits every access without touching any slices — the
// minimal zero-allocation Cache for isolating runner overhead.
type hitCache struct{}

func (hitCache) Name() string             { return "hit" }
func (hitCache) Access(model.Item) Access { return Access{Hit: true} }
func (hitCache) Contains(model.Item) bool { return true }
func (hitCache) Len() int                 { return 0 }
func (hitCache) Capacity() int            { return 1 }
func (hitCache) Reset()                   {}

// TestRunCtxZeroAllocSteadyState pins the fault-tolerance contract that
// cancellation support stays off the hot path: Run's per-access loop —
// context poll every cancelStride accesses included — must not
// allocate. A bounded replay allocates only its Recorder's bitset, once
// per replay (the Recorder itself lives in Run's frame), so a replay
// sixteen times longer must cost exactly as many allocations as a short
// one; a regression would show up as allocations proportional to trace
// length.
func TestRunCtxZeroAllocSteadyState(t *testing.T) {
	const universe = 256
	ctx := context.Background()
	o := RunOptions{Universe: universe}
	var c hitCache
	allocs := func(strides int) float64 {
		tr := make(trace.Trace, strides*cancelStride)
		for i := range tr {
			tr[i] = model.Item(i % universe)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(ctx, c, tr, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1), allocs(16)
	if long != short {
		t.Errorf("Run allocates %.2f per %d-access replay but %.2f per %d-access replay, want 0 per access",
			long, 16*cancelStride, short, cancelStride)
	}
	if short > 1 {
		t.Errorf("Run allocates %.2f per replay, want at most the Recorder's bitset (1)", short)
	}
}
