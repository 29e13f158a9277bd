package cachesim_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// streamFixture writes tr to a temp file and returns the path.
func streamFixture(t *testing.T, tr trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.gct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunStreamTextSource checks the text scanner drives the engine the
// same way the binary one does.
func TestRunStreamTextSource(t *testing.T) {
	geo := model.NewFixed(4)
	tr, err := workload.FromSpec("blockruns:blocks=32,B=4,run=3,len=5000", 3)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	ctx, cold := context.Background(), cachesim.RunOptions{Cold: true}
	want, err := cachesim.Run(ctx, core.NewIBLPEvenSplit(64, geo), tr, cold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cachesim.RunStream(ctx, core.NewIBLPEvenSplit(64, geo), trace.NewTextScanner(&text), cold)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("text-streamed stats %+v != %+v", got, want)
	}
}

// TestRunStreamSourceError checks a failing source surfaces its error
// along with the statistics accumulated before the failure.
func TestRunStreamSourceError(t *testing.T) {
	tr := make(trace.Trace, 1000)
	for i := range tr {
		tr[i] = model.Item(i % 64)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-2]
	sc, err := trace.NewScanner(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cachesim.RunStream(context.Background(), policy.NewItemLRU(32), sc, cachesim.RunOptions{Cold: true})
	if err == nil {
		t.Fatal("truncated stream replayed cleanly")
	}
	if st.Accesses == 0 || st.Accesses >= int64(len(tr)) {
		t.Errorf("partial stats cover %d accesses, want in (0, %d)", st.Accesses, len(tr))
	}
}

// TestRunStreamZeroAllocSteadyState pins the tentpole's memory budget:
// the streaming per-access path — scanner decode, policy access,
// bounded recorder classification, context poll — must not allocate.
// The fixed overhead (scanner + bufio buffer per replay) is tolerated;
// anything proportional to the trace would blow the bound.
func TestRunStreamZeroAllocSteadyState(t *testing.T) {
	const universe = 512
	geo := model.NewFixed(8)
	tr, err := workload.FromSpec("blockruns:blocks=64,B=8,run=4,len=60000", 7)
	if err != nil {
		t.Fatal(err)
	}
	u := model.ItemUniverse(geo, tr.Universe())
	if u > universe {
		t.Fatalf("fixture universe %d grew past %d", u, universe)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	c := core.NewIBLPEvenSplitBounded(128, geo, universe)
	ctx := context.Background()
	rd := bytes.NewReader(raw)

	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		sc, err := trace.NewScanner(rd)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cachesim.RunStream(ctx, c, sc, cachesim.RunOptions{Cold: true, Universe: universe})
		if err != nil || st.Accesses != int64(len(tr)) {
			t.Fatalf("accesses=%d err=%v", st.Accesses, err)
		}
	})
	// Per-replay constant: scanner, bufio reader+buffer, recorder bitset.
	if avg > 12 {
		t.Errorf("streaming replay of %d accesses costs %.1f allocs, want a small constant (≤12): per-access path is allocating", len(tr), avg)
	}
}
