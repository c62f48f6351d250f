package laser

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// quietImage builds a contention-free four-thread image: private loops
// with no HITMs, so steady-state Steps drain no records. This is the
// workload shape the allocation contract is specified against — with
// HITM records in flight, the PEBS buffers and the detector's aggregates
// legitimately grow.
func quietImage(iters int64) *workload.Image {
	b := isa.NewBuilder().At("quiet.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.AluI(isa.And, 4, 1, 255)
	b.AluI(isa.Shl, 4, 4, 3)
	b.Add(4, 4, 2)
	b.Load(5, 4, 0, 8)
	b.AddI(5, 5, 1)
	b.Store(4, 0, 5, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Halt()
	img := &workload.Image{Prog: b.Build(), Threads: 4}
	img.Specs = make([]machine.ThreadSpec, 4)
	for i := range img.Specs {
		img.Specs[i] = machine.ThreadSpec{Regs: map[isa.Reg]int64{
			2: int64(mem.HeapBase + 0x1000 + mem.Addr(i)*0x1000),
		}}
	}
	return img
}

func quietSession(t testing.TB, iters int64) *Session {
	t.Helper()
	s, err := Attach(quietImage(iters),
		WithRepair(false),
		WithPollInterval(100_000))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionStepZeroAllocs asserts the streaming hot path's allocation
// contract: once warm, a Step with no observers attached (and no records
// to drain) performs zero allocations, and so do the Into-style snapshot
// calls.
func TestSessionStepZeroAllocs(t *testing.T) {
	s := quietSession(t, 1<<40)
	defer s.Close()
	// Warm up: first-touch pages, call stacks, PEBS/driver paths.
	for i := 0; i < 10; i++ {
		if done, err := s.Step(); err != nil || done {
			t.Fatalf("warmup ended early: done=%v err=%v", done, err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Session.Step allocates %.1f objects/op, want 0", avg)
	}
	var rep, erep = s.Snapshot(), s.EpochSnapshot()
	if avg := testing.AllocsPerRun(50, func() {
		s.SnapshotInto(rep)
		s.EpochSnapshotInto(erep)
	}); avg != 0 {
		t.Errorf("SnapshotInto allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkSessionStep measures the per-Step cost of the streaming API on
// a quiet workload; run with -benchmem — the contract is 0 allocs/op.
func BenchmarkSessionStep(b *testing.B) {
	s := quietSession(b, 1<<40)
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotInto measures the buffer-reusing snapshot path.
func BenchmarkSnapshotInto(b *testing.B) {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.3, HeapBias: AttachBias})
	s, err := Attach(img, WithRepair(false))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunFor(20_000_000); err != nil {
		b.Fatal(err)
	}
	rep := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SnapshotInto(rep)
	}
}

// BenchmarkAttach measures session set-up as perfbench times it: the
// workload image build plus Attach, for fs_repair's histogram′ (scale
// 0.15, speculative repair) and alu's swaptions (scale 1, two intra-run
// workers).
func BenchmarkAttach(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
		opts  []Option
	}{
		{"histogram'", 0.15, []Option{WithSpeculativeRepair(true)}},
		{"swaptions", 1, []Option{WithIntraRunParallelism(2)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, ok := workload.Get(c.name)
			if !ok {
				b.Fatalf("%s not registered", c.name)
			}
			opts := append([]Option{WithAutoPollInterval(c.scale)}, c.opts...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := Attach(w.Build(workload.Options{Scale: c.scale, HeapBias: AttachBias}), opts...)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
