package hierarchy

import (
	"context"
	"strings"
	"testing"

	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/workload"
)

func twoLevel(t *testing.T) *Stack {
	t.Helper()
	lineGeo := model.NewFixed(8) // L1 loads 8-item lines from L2
	rowGeo := model.NewFixed(64) // L2 loads 64-item rows from memory
	s, err := New(
		Level{Name: "L1", Cache: policy.NewItemLRU(64), MissCost: 10},
		Level{Name: "L2", Cache: core.NewIBLPEvenSplit(1024, rowGeo), MissCost: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = lineGeo
	return s
}

func TestAccessDescends(t *testing.T) {
	s := twoLevel(t)
	// Cold access goes all the way to memory.
	if depth := s.Access(0); depth != 2 {
		t.Errorf("cold access depth = %d, want 2", depth)
	}
	// Immediate re-access hits L1.
	if depth := s.Access(0); depth != 0 {
		t.Errorf("warm access depth = %d, want 0", depth)
	}
	// A row sibling misses L1 but hits L2 (IBLP loaded the row).
	if depth := s.Access(5); depth != 1 {
		t.Errorf("sibling access depth = %d, want 1", depth)
	}
}

func TestTrafficAccounting(t *testing.T) {
	s := twoLevel(t)
	res, _ := s.Run(context.Background(), workload.Sequential(0, 640)) // 10 rows, one pass
	l1 := res.PerLevel[0]
	l2 := res.PerLevel[1]
	if l1.Accesses != 640 {
		t.Fatalf("L1 accesses = %d", l1.Accesses)
	}
	// Every L1 miss becomes exactly one L2 access.
	if l2.Accesses != l1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses, l1.Misses)
	}
	// Cold sequential sweep: L1 (pure item cache) misses everything; L2
	// (IBLP over 64-item rows) misses ≈ once per row.
	if l1.Misses != 640 {
		t.Errorf("L1 misses = %d, want 640", l1.Misses)
	}
	if l2.Misses != 10 {
		t.Errorf("L2 misses = %d, want 10 (one per row)", l2.Misses)
	}
	wantCost := 640*10 + 10*100
	if got := res.TotalCost(); got != int64(wantCost) {
		t.Errorf("TotalCost = %d, want %d", got, wantCost)
	}
	wantAMAT := 1 + float64(wantCost)/640
	if got := res.AMAT(); got != wantAMAT {
		t.Errorf("AMAT = %v, want %v", got, wantAMAT)
	}
	if !strings.Contains(res.String(), "L2") {
		t.Error("String() missing level name")
	}
}

func TestGCAwareL2BeatsItemL2(t *testing.T) {
	rowGeo := model.NewFixed(64)
	build := func(l2 Level) Result {
		s, err := New(
			Level{Name: "L1", Cache: policy.NewItemLRU(64), MissCost: 10},
			l2,
		)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := s.Run(context.Background(), workload.MatrixTraversal(64, 256, true, 2))
		return res
	}
	gcAware := build(Level{Name: "L2", Cache: core.NewIBLPEvenSplit(2048, rowGeo), MissCost: 100})
	itemOnly := build(Level{Name: "L2", Cache: policy.NewItemLRU(2048), MissCost: 100})
	if gcAware.TotalCost() >= itemOnly.TotalCost() {
		t.Errorf("GC-aware L2 cost %d should beat item-only L2 cost %d",
			gcAware.TotalCost(), itemOnly.TotalCost())
	}
}

func TestThreeLevelStack(t *testing.T) {
	s, err := New(
		Level{Name: "L1", Cache: policy.NewItemLRU(32), MissCost: 1},
		Level{Name: "L2", Cache: policy.NewBlockLoadItemEvict(512, model.NewFixed(8)), MissCost: 10},
		Level{Name: "L3", Cache: core.NewIBLPEvenSplit(4096, model.NewFixed(64)), MissCost: 200},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Run(context.Background(), workload.CyclicScan(2048, 20000))
	// Monotone traffic: accesses can only shrink going down.
	for i := 1; i < len(res.PerLevel); i++ {
		if res.PerLevel[i].Accesses != res.PerLevel[i-1].Misses {
			t.Errorf("level %d accesses %d != level %d misses %d",
				i, res.PerLevel[i].Accesses, i-1, res.PerLevel[i-1].Misses)
		}
	}
	if res.TotalCost() <= 0 {
		t.Error("no traffic?")
	}
}

func TestResetAndLevelStats(t *testing.T) {
	s := twoLevel(t)
	s.Run(context.Background(), workload.Sequential(0, 100))
	if s.LevelStats(0).Accesses != 100 {
		t.Error("LevelStats before reset")
	}
	s.Reset()
	if s.LevelStats(0).Accesses != 0 {
		t.Error("Reset did not clear stats")
	}
	if depth := s.Access(0); depth != 2 {
		t.Error("Reset did not clear caches")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty stack accepted")
	}
	if _, err := New(Level{Name: "x"}); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := New(Level{Name: "x", Cache: policy.NewItemLRU(4), MissCost: -1}); err == nil {
		t.Error("negative cost accepted")
	}
	var empty Result
	if empty.AMAT() != 0 {
		t.Error("empty AMAT")
	}
}
