package gccache_test

import (
	"context"
	"testing"

	"gccache"
	"gccache/internal/model"
	"gccache/internal/workload"
)

func runTraceWorkload(b *testing.B) (*model.Fixed, gccache.Trace) {
	b.Helper()
	g := model.NewFixed(64)
	tr, err := workload.BlockRuns(workload.BlockRunsConfig{
		NumBlocks: 4096, BlockSize: 64, MeanRunLength: 8,
		ZipfS: 1.2, Length: 1 << 16, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g, tr
}

// BenchmarkRunTrace measures the end-to-end trace-replay hot path — policy
// access, recorder classification, and net-change reconciliation — by
// replaying one BlockRuns trace per iteration through the even-split IBLP
// on the dense (bounded-universe) path. BENCH_baseline.json keeps the
// pre-optimization number under "pre_change" for the trajectory.
func BenchmarkRunTrace(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	c := gccache.NewIBLPEvenSplitBounded(4096, g, u)
	ctx, o := context.Background(), gccache.RunOptions{Cold: true, Universe: u}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := gccache.Run(ctx, c, tr, o)
		if err != nil {
			b.Fatal(err)
		}
		if st.Misses == 0 {
			b.Fatal("implausible: zero misses")
		}
	}
}

// BenchmarkRunTraceGeneric is the same replay on the generic (map-backed)
// representation — the permanent reference point for the dense path's
// speedup, so the comparison stays reproducible on any machine.
func BenchmarkRunTraceGeneric(b *testing.B) {
	g, tr := runTraceWorkload(b)
	c := gccache.NewIBLPEvenSplit(4096, g)
	ctx, o := context.Background(), gccache.RunOptions{Cold: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := gccache.Run(ctx, c, tr, o)
		if err != nil {
			b.Fatal(err)
		}
		if st.Misses == 0 {
			b.Fatal("implausible: zero misses")
		}
	}
}

// BenchmarkSweep measures the chunked work-stealing sweep engine on a
// 64-point grid, one pooled dense IBLP per worker reused (via the Cold
// replay's reset) across every point the worker claims.
func BenchmarkSweep(b *testing.B) {
	g, tr := runTraceWorkload(b)
	u := model.ItemUniverse(g, tr.Universe())
	ctx, o := context.Background(), gccache.RunOptions{Cold: true, Universe: u}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := gccache.Sweep(ctx, 64, 0, nil, func() gccache.Cache {
			return gccache.NewIBLPEvenSplitBounded(4096, g, u)
		}, func(pt int, c gccache.Cache) {
			if st, _ := gccache.Run(ctx, c, tr, o); st.Misses == 0 {
				b.Error("implausible: zero misses")
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
