package repair_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/repair"
	"repro/internal/workload"
	"repro/laser"
)

// histogramPlan returns histogram′'s original program (scale 0.15) and
// the SSB plan for the contending PCs its detector hands to repair.
func histogramPlan(tb testing.TB) (*isa.Program, *repair.Plan) {
	tb.Helper()
	w, ok := workload.Get("histogram'")
	if !ok {
		tb.Fatal("histogram' not registered")
	}
	img := w.Build(workload.Options{Scale: 0.15, HeapBias: laser.AttachBias})
	var pcs []mem.Addr
	s, err := laser.Attach(img, laser.WithAutoPollInterval(0.15),
		laser.WithObserver(func(e laser.Event) {
			if ev, ok := e.(laser.RepairTriggered); ok && pcs == nil {
				pcs = ev.Candidates
			}
		}))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Wait(); err != nil {
		tb.Fatal(err)
	}
	if pcs == nil {
		tb.Fatal("histogram' never triggered repair")
	}
	plan, err := repair.Analyze(repair.DefaultConfig(), img.Prog, pcs)
	if err != nil {
		tb.Fatal(err)
	}
	return img.Prog, plan
}

func BenchmarkRewrite(b *testing.B) {
	prog, plan := histogramPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repair.Rewrite(prog, plan)
	}
}

// TestRewriteAllocations pins Rewrite to its fixed set of allocations:
// the output, the forward and reverse maps, the function table, the
// rebuilt program and the one array behind its two PC slot tables. A
// buffer that regrows on append adds allocations and fails the test.
func TestRewriteAllocations(t *testing.T) {
	prog, plan := histogramPlan(t)
	const fixed = 6
	if got := testing.AllocsPerRun(20, func() { repair.Rewrite(prog, plan) }); got != fixed {
		t.Errorf("Rewrite allocates %v times per call, want %d", got, fixed)
	}
}
