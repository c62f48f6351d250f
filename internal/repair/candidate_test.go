package repair

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

// fsLoopWithTail is fsLoop followed by a second, private-only loop before
// the halt: the contending region then has two distinct legal flush
// points (the tail loop's entry and the halt block), so the nearest- and
// farthest-post-dominator strategies place their flushes differently.
func fsLoopWithTail(iters int64) *isa.Program {
	b := isa.NewBuilder().At("lreg.c", 100)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(102)
	b.Load(2, 10, 0, 8)
	b.Load(4, 0, 0, 8)
	b.Add(4, 4, 2)
	b.Store(0, 0, 4, 8)
	b.Line(104).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	// Private cooldown loop: a separate block past the contending
	// region, post-dominating it, with the halt block behind it.
	b.Line(110).Li(1, 0)
	b.Label("tail").Line(111)
	b.Load(2, 10, 0, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 4, "tail")
	b.Line(113).Halt()
	return b.Build()
}

// TestCandidateTable drives every candidate in the slate over the same
// contending region and pins the plan (or refusal) each one produces.
// Candidates are pure, so the expectations are exact.
func TestCandidateTable(t *testing.T) {
	prog := fsLoop(1000)
	pcs := storePCs(prog)
	cases := []struct {
		name      string
		wantErr   error
		wantPlan  bool
		flushLine int // source line of the single expected flush
	}{
		{name: "ssb", wantPlan: true, flushLine: 106},
		{name: "ssb-conservative", wantPlan: true, flushLine: 106},
		{name: "reorder", wantPlan: true, flushLine: 106},
		{name: "decline", wantErr: ErrDeclined},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand, err := CandidateByName(tc.name)
			if err != nil {
				t.Fatalf("CandidateByName(%q): %v", tc.name, err)
			}
			if got := cand.Name(); got != tc.name {
				t.Fatalf("Name() = %q, want %q", got, tc.name)
			}
			plan, err := cand.Analyze(DefaultConfig(), prog, pcs)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Analyze err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if !tc.wantPlan {
				return
			}
			if len(plan.FlushBefore) != 1 {
				t.Fatalf("flushes = %v, want one", plan.FlushBefore)
			}
			if got := prog.Instrs[plan.FlushBefore[0]].Line; got != tc.flushLine {
				t.Errorf("flush at line %d, want %d", got, tc.flushLine)
			}
		})
	}
}

// TestCandidatePurity re-analyzes each candidate and requires an
// identical plan: the trial engine's reproducibility rests on candidates
// being pure functions of (cfg, prog, pcs).
func TestCandidatePurity(t *testing.T) {
	prog := fsLoop(1000)
	pcs := storePCs(prog)
	for _, cand := range Candidates() {
		a, errA := cand.Analyze(DefaultConfig(), prog, pcs)
		b, errB := cand.Analyze(DefaultConfig(), prog, pcs)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: errors diverge: %v vs %v", cand.Name(), errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated analysis produced different plans", cand.Name())
		}
	}
}

// TestConservativeExemptsNothing pins the one behavioral difference of
// the conservative candidate: with speculative aliasing forced off, no
// load is alias-exempt, regardless of the configuration passed in.
func TestConservativeExemptsNothing(t *testing.T) {
	prog := fsLoop(1000)
	pcs := storePCs(prog)
	cfg := DefaultConfig()
	cfg.SpeculativeAliasing = true

	ssbPlan, err := ssbCandidate{}.Analyze(cfg, prog, pcs)
	if err != nil {
		t.Fatalf("ssb: %v", err)
	}
	if len(ssbPlan.AliasExempt) == 0 {
		t.Fatal("ssb plan exempts no loads; the program should have private loads")
	}
	conPlan, err := conservativeCandidate{}.Analyze(cfg, prog, pcs)
	if err != nil {
		t.Fatalf("ssb-conservative: %v", err)
	}
	if len(conPlan.AliasExempt) != 0 {
		t.Errorf("conservative plan exempts %d loads, want 0", len(conPlan.AliasExempt))
	}
}

// TestReorderPlacesFlushFarther pins the reorder candidate's defining
// property on a region with more than one legal flush point: ssb
// flushes at the nearest post-dominator, reorder at the farthest.
func TestReorderPlacesFlushFarther(t *testing.T) {
	prog := fsLoopWithTail(1000)
	pcs := storePCs(prog)

	ssbPlan, err := ssbCandidate{}.Analyze(DefaultConfig(), prog, pcs)
	if err != nil {
		t.Fatalf("ssb: %v", err)
	}
	reoPlan, err := reorderCandidate{}.Analyze(DefaultConfig(), prog, pcs)
	if err != nil {
		t.Fatalf("reorder: %v", err)
	}
	if len(ssbPlan.FlushBefore) != 1 || len(reoPlan.FlushBefore) != 1 {
		t.Fatalf("flushes: ssb=%v reorder=%v, want one each", ssbPlan.FlushBefore, reoPlan.FlushBefore)
	}
	near, far := ssbPlan.FlushBefore[0], reoPlan.FlushBefore[0]
	if near >= far {
		t.Errorf("ssb flush idx %d (line %d) not before reorder flush idx %d (line %d)",
			near, prog.Instrs[near].Line, far, prog.Instrs[far].Line)
	}
}

// TestCandidateRegistry pins the canonical slate order the trial engine,
// the selector tie-break and the SSE encodings all rely on, and the
// CandidateByName round-trip including the legacy empty name.
func TestCandidateRegistry(t *testing.T) {
	want := []string{"ssb", "ssb-conservative", "reorder", "decline"}
	var got []string
	for _, c := range Candidates() {
		got = append(got, c.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Candidates() order = %v, want %v", got, want)
	}
	for _, name := range want {
		c, err := CandidateByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("CandidateByName(%q) = %v, %v", name, c, err)
		}
	}
	if c, err := CandidateByName(""); err != nil || c.Name() != DefaultCandidate().Name() {
		t.Errorf("CandidateByName(\"\") = %v, %v; want default candidate", c, err)
	}
	if _, err := CandidateByName("bogus"); err == nil {
		t.Error("CandidateByName(\"bogus\") succeeded, want error")
	}
}

// fencedLoop is a contending store inside a tight critical section:
// every candidate that rewrites refuses it as unprofitable.
func fencedLoop() *isa.Program {
	b := isa.NewBuilder().At("locked.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Store(0, 0, 2, 8)
	b.Fence()
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 100, "loop")
	b.Halt()
	return b.Build()
}

// TestPrepareTable pins what the trial race groups on: ssb and reorder
// prepare equal plans where the region has a single exit, unequal ones
// where the nearest and farthest flush blocks differ, and the decline
// and a refusing candidate return their analysis errors.
func TestPrepareTable(t *testing.T) {
	cases := []struct {
		name    string
		prog    *isa.Program
		a, b    string
		same    bool
		wantErr error // from preparing a; b is then not prepared
	}{
		{name: "single exit", prog: fsLoop(1000), a: "ssb", b: "reorder", same: true},
		{name: "two flush blocks", prog: fsLoopWithTail(1000), a: "ssb", b: "reorder", same: false},
		{name: "alias exemptions differ", prog: fsLoop(1000), a: "ssb", b: "ssb-conservative", same: false},
		{name: "decline", prog: fsLoop(1000), a: "decline", wantErr: ErrDeclined},
		{name: "refusal", prog: fencedLoop(), a: "ssb", wantErr: ErrNotProfitable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(tc.prog, machine.Config{Cores: 2}, fsSpecs())
			ctl := NewController(DefaultConfig(), m)
			prepare := func(name string) (*Prepared, error) {
				cand, err := CandidateByName(name)
				if err != nil {
					t.Fatal(err)
				}
				return ctl.Prepare(cand, storePCs(tc.prog))
			}
			pa, err := prepare(tc.a)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || pa != nil {
					t.Fatalf("Prepare(%s) = %v, %v; want error %v", tc.a, pa, err, tc.wantErr)
				}
				if ctl.Generation() != 0 || ctl.Applied() {
					t.Fatal("a refused Prepare touched the controller")
				}
				return
			}
			if err != nil {
				t.Fatalf("Prepare(%s): %v", tc.a, err)
			}
			pb, err := prepare(tc.b)
			if err != nil {
				t.Fatalf("Prepare(%s): %v", tc.b, err)
			}
			if got := pa.SamePlans(pb); got != tc.same {
				t.Errorf("%s and %s prepare equal plans: %t, want %t", tc.a, tc.b, got, tc.same)
			}
			if ctl.Generation() != 0 || ctl.Applied() || m.Program() != tc.prog {
				t.Fatal("Prepare touched the controller or the machine")
			}
		})
	}
}

// TestApplyPreparedRewritesOnce pins the prepared install's sharing:
// the first apply rewrites the program, and a second controller applying
// the same value installs the very same program instead of rewriting it
// again. The result matches what Apply installs directly.
func TestApplyPreparedRewritesOnce(t *testing.T) {
	prog := fsLoop(1000)
	pcs := storePCs(prog)
	m1 := machine.New(prog, machine.Config{Cores: 2}, fsSpecs())
	m2 := machine.New(prog, machine.Config{Cores: 2}, fsSpecs())
	m3 := machine.New(prog, machine.Config{Cores: 2}, fsSpecs())
	c1, c2 := NewController(DefaultConfig(), m1), NewController(DefaultConfig(), m2)
	p, err := c1.Prepare(DefaultCandidate(), pcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Controller{c1, c2} {
		if err := c.ApplyPrepared(p); err != nil {
			t.Fatalf("ApplyPrepared: %v", err)
		}
	}
	if m1.Program() != m2.Program() {
		t.Error("the second apply of one prepared value rewrote the program again")
	}
	if err := c1.ApplyPrepared(p); err == nil {
		t.Error("ApplyPrepared over an installed rewrite succeeded")
	}
	if err := NewController(DefaultConfig(), m3).Apply(pcs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m3.Program().Instrs, m1.Program().Instrs) {
		t.Error("the prepared install differs from Apply's")
	}
	if got := c1.Candidate(); got != DefaultCandidate().Name() {
		t.Errorf("installed candidate %q, want %q", got, DefaultCandidate().Name())
	}
}
