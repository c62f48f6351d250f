package laser

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/repair"
	"repro/internal/workload"
)

// trialFSImage builds a minimal two-thread image with one falsely shared
// line: each thread stores into its own slot of the line and loads from
// a private array, linear_regression-shaped. Small enough that trial
// forks complete within a modest budget.
func trialFSImage(iters int64) *workload.Image {
	b := isa.NewBuilder().At("trial.c", 100)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(102)
	b.Load(2, 10, 0, 8) // private load
	b.Load(4, 0, 0, 8)  // contended load
	b.Add(4, 4, 2)
	b.Store(0, 0, 4, 8) // contended store (false sharing)
	b.Line(104).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Line(106).Halt()
	prog := b.Build()

	line := mem.HeapBase + 0x1000
	specs := []machine.ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line), 10: int64(line) + 1024}},
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line) + 16, 10: int64(line) + 2048}},
	}
	return &workload.Image{Prog: prog, Specs: specs, Threads: 2}
}

// contendingStorePCs mimics the detector's candidate list: the PCs of
// the program's store instructions.
func contendingStorePCs(prog *isa.Program) []mem.Addr {
	var pcs []mem.Addr
	for i := range prog.Instrs {
		if prog.Instrs[i].Op == isa.OpStore {
			pcs = append(pcs, prog.Instrs[i].PC)
		}
	}
	return pcs
}

// TestTrialForksIsolateParent is the fork-isolation aliasing audit as a
// test: a session that runs a full trial race mid-stream must remain
// byte-identical — snapshot for snapshot, step for step — to a twin
// session that never forked. Any mutable structure shared between the
// parent and a trial fork (or between forks, which run concurrently and
// so also put the race detector on duty) would diverge the snapshots.
func TestTrialForksIsolateParent(t *testing.T) {
	const iters = 30_000
	attach := func() *Session {
		s, err := Attach(trialFSImage(iters),
			WithRepair(false), // drive repair by hand below
			WithPollInterval(50_000),
			WithTrialBudget(150_000))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	subject, twin := attach(), attach()
	defer subject.Close()
	defer twin.Close()

	// Step both to the same mid-run cut.
	for _, s := range []*Session{subject, twin} {
		if done, err := s.RunFor(200_000); err != nil || done {
			t.Fatalf("RunFor: done=%t err=%v", done, err)
		}
	}
	before := encodeState(t, subject)
	if tw := encodeState(t, twin); !bytes.Equal(before, tw) {
		t.Fatal("subject and twin diverged before any trial ran")
	}

	// Race the full candidate slate on the subject only.
	race, err := subject.runTrials(contendingStorePCs(subject.img.Prog))
	if err != nil {
		t.Fatalf("runTrials: %v", err)
	}
	trials := race.results
	if len(trials) != 4 {
		t.Fatalf("got %d trials, want 4", len(trials))
	}
	ran := 0
	for _, tr := range trials {
		if tr.Err == "" && tr.Cycles > 0 {
			ran++
		}
	}
	if ran < 2 {
		t.Fatalf("want at least two measured trials (a rewrite and the no-op), got %d: %+v", ran, trials)
	}

	// The race must not have moved the parent by a single byte.
	if after := encodeState(t, subject); !bytes.Equal(before, after) {
		t.Fatal("trial race mutated the parent session state")
	}

	// And the rest of the run must unfold exactly as the twin's.
	finish := func(s *Session) {
		for {
			done, err := s.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if done {
				return
			}
		}
	}
	finish(subject)
	finish(twin)
	sres, err := subject.Result()
	if err != nil {
		t.Fatal(err)
	}
	tres, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres.Stats, tres.Stats) {
		t.Errorf("final stats diverged after trials:\nsubject: %+v\ntwin:    %+v", sres.Stats, tres.Stats)
	}
	if sf := encodeState(t, subject); !bytes.Equal(sf, encodeState(t, twin)) {
		t.Error("final session snapshots diverged after trials")
	}
}

func encodeState(t *testing.T, s *Session) []byte {
	t.Helper()
	blob, err := s.CaptureState().Encode()
	if err != nil {
		t.Fatalf("CaptureState.Encode: %v", err)
	}
	return blob
}

// twoPhaseImage is trialFSImage with a second phase: after iters1
// iterations on the first falsely shared line, both threads move to a
// second line, contended by a different store PC. A trial window that
// reaches the second phase sees the §4.4 trigger fire again, on fresh
// candidates.
func twoPhaseImage(iters1, iters2 int64) *workload.Image {
	b := isa.NewBuilder().At("phase.c", 100)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("a").Line(102)
	b.Load(2, 10, 0, 8)
	b.Load(4, 0, 0, 8)
	b.Add(4, 4, 2)
	b.Store(0, 0, 4, 8)
	b.Line(104).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters1, "a")
	b.Line(110).Li(1, 0)
	b.Label("b").Line(112)
	b.Load(2, 10, 0, 8)
	b.Load(4, 11, 0, 8)
	b.Add(4, 4, 2)
	b.Store(11, 0, 4, 8)
	b.Line(114).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters2, "b")
	b.Line(116).Halt()
	prog := b.Build()

	line, line2 := mem.HeapBase+0x1000, mem.HeapBase+0x4000
	specs := []machine.ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line), 10: int64(line) + 1024, 11: int64(line2)}},
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line) + 16, 10: int64(line) + 2048, 11: int64(line2) + 16}},
	}
	return &workload.Image{Prog: prog, Specs: specs, Threads: 2}
}

// adoptionRun is what one session showed its driver, Step by Step.
type adoptionRun struct {
	events   []Event
	steps    []machine.Stats // Stats() after each Step
	epochs   []int           // EpochIndex() after each Step
	res      *Result
	final    []byte // encoded state at the end
	replayed bool   // a replay was in progress at some Step boundary
}

// runAdoption drives a session to completion. capture forces
// materialization by calling CaptureState after every Step; cut > 0
// instead checkpoints the session after the cut-th replayed poll,
// restores the checkpoint and finishes the run on the restored
// session.
func runAdoption(t *testing.T, img func() *workload.Image, opts []Option, capture bool, cut int) adoptionRun {
	t.Helper()
	var run adoptionRun
	record := WithObserver(func(e Event) { run.events = append(run.events, e) })
	s, err := Attach(img(), append(opts, record)...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		run.steps = append(run.steps, cloneStats(s.Stats()))
		run.epochs = append(run.epochs, s.EpochIndex())
		if capture {
			s.CaptureState()
		}
		if s.replay != nil {
			run.replayed = true
		}
		if cut > 0 && s.replay != nil && s.replayed == cut {
			blob := encodeState(t, s)
			if s.replay != nil {
				t.Fatal("CaptureState left the replay in place")
			}
			st, err := DecodeSessionState(blob)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if s, err = RestoreSession(img(), st, append(opts, record)...); err != nil {
				t.Fatalf("RestoreSession: %v", err)
			}
			cut = 0
		}
		if done {
			break
		}
	}
	if run.res, err = s.Result(); err != nil {
		t.Fatal(err)
	}
	run.final = encodeState(t, s)
	return run
}

// TestTrialAdoptionMatchesResimulation is the adoption oracle: a
// session that adopts its winning trial fork must be indistinguishable
// from a twin that re-simulates the fork's window (CaptureState after
// every Step materializes it) — event for event, Step for Step, in the
// Result and in the final encoded state — and a checkpoint taken
// mid-replay must restore into the uninterrupted stream. The cases
// cover a winner that completed the workload, one stopped by the
// budget, a measured decline, and a fork the parent may not adopt
// because the trigger fires again inside its window.
func TestTrialAdoptionMatchesResimulation(t *testing.T) {
	build := func(name string, opts workload.Options) func() *workload.Image {
		return func() *workload.Image {
			w, ok := workload.Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			return w.Build(opts)
		}
	}
	cases := []struct {
		name      string
		img       func() *workload.Image
		opts      []Option
		adopt     bool
		winner    string
		completed bool
	}{
		{"completed", build("histogram'", workload.Options{Scale: 0.15, HeapBias: AttachBias}),
			[]Option{WithAutoPollInterval(0.15), WithSpeculativeRepair(true)}, true, "ssb", true},
		{"budget", func() *workload.Image { return trialFSImage(30_000) },
			[]Option{WithPollInterval(50_000), WithSpeculativeRepair(true)}, true, "ssb", false},
		{"decline", build("linear_regression", workload.Options{Scale: 0.6}),
			[]Option{WithSpeculativeRepair(true)}, true, repair.DeclineName, true},
		{"retrigger", func() *workload.Image { return twoPhaseImage(2500, 40_000) },
			[]Option{WithPollInterval(50_000), WithSpeculativeRepair(true), WithTrialBudget(1_000_000)}, false, "ssb-conservative", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			adopted := runAdoption(t, c.img, c.opts, false, 0)
			twin := runAdoption(t, c.img, c.opts, true, 0)

			if adopted.replayed != c.adopt {
				t.Fatalf("adopted the winner's fork: %t, want %t", adopted.replayed, c.adopt)
			}
			if twin.replayed {
				t.Fatal("the materializing twin still had a replay in progress at a Step boundary")
			}
			res := adopted.res
			if res.RepairWinner != c.winner {
				t.Fatalf("winner %q, want %q", res.RepairWinner, c.winner)
			}
			for _, tr := range res.RepairTrials {
				if tr.Candidate == c.winner && tr.Completed != c.completed {
					t.Fatalf("winner completed its trial: %t, want %t", tr.Completed, c.completed)
				}
			}
			if c.winner == repair.DeclineName && res.RepairErr == nil {
				t.Fatal("measured decline left no RepairErr")
			}
			if !c.adopt {
				triggers := 0
				for _, e := range adopted.events {
					if _, ok := e.(RepairTriggered); ok {
						triggers++
					}
				}
				if triggers < 2 {
					t.Fatalf("RepairTriggered %d times, want a second trigger inside the window", triggers)
				}
			}
			compareAdoption(t, "twin", adopted, twin)

			if c.adopt {
				restored := runAdoption(t, c.img, c.opts, false, 1)
				compareAdoption(t, "restored mid-replay", adopted, restored)
			}
		})
	}
}

func compareAdoption(t *testing.T, what string, want, got adoptionRun) {
	t.Helper()
	if len(got.events) != len(want.events) {
		t.Errorf("%s: %d events, want %d", what, len(got.events), len(want.events))
	}
	for i := 0; i < len(got.events) && i < len(want.events); i++ {
		if !reflect.DeepEqual(got.events[i], want.events[i]) {
			t.Fatalf("%s: event %d diverged:\ngot  %v\nwant %v", what, i, got.events[i], want.events[i])
		}
	}
	if !reflect.DeepEqual(got.steps, want.steps) {
		t.Errorf("%s: Stats() after each Step diverged", what)
	}
	if !reflect.DeepEqual(got.epochs, want.epochs) {
		t.Errorf("%s: EpochIndex() after each Step diverged: %v, want %v", what, got.epochs, want.epochs)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if g, w := errText(got.res.RepairErr), errText(want.res.RepairErr); g != w {
		t.Errorf("%s: RepairErr %q, want %q", what, g, w)
	}
	strip := func(r *Result) Result {
		c := *r
		c.Pipeline, c.RepairErr = nil, nil
		return c
	}
	if !reflect.DeepEqual(strip(got.res), strip(want.res)) {
		t.Errorf("%s: Result diverged:\ngot  %+v\nwant %+v", what, strip(got.res), strip(want.res))
	}
	if !bytes.Equal(got.final, want.final) {
		t.Errorf("%s: final encoded state diverged", what)
	}
}

// raceCut is what a session's trial race started from.
type raceCut struct {
	s     *Session
	res   *Result
	pcs   []mem.Addr
	snap  *SessionState
	slate *trialSlate
	base  trialBase
}

// runToRaceCut runs img to completion and returns the session, its
// result and what its trial race started from. The race captures its
// snapshot and analyzes the slate just before it announces itself, so
// the same is done at that event. The caller closes the session.
func runToRaceCut(t *testing.T, img *workload.Image, opts []Option) *raceCut {
	t.Helper()
	c := &raceCut{}
	watch := WithObserver(func(e Event) {
		if c.snap != nil {
			return
		}
		switch ev := e.(type) {
		case RepairTriggered:
			c.pcs = ev.Candidates
		case RepairTrialStarted:
			c.snap = c.s.CaptureState()
			c.slate = c.s.prepareSlate(c.pcs)
			st := c.s.m.Stats()
			c.base = trialBase{cycles: st.Cycles, instr: st.Instructions, hitms: st.HITMLoads + st.HITMStores}
		}
	})
	var err error
	if c.s, err = Attach(img, append(opts, watch)...); err != nil {
		t.Fatal(err)
	}
	if c.res, err = c.s.Wait(); err != nil {
		c.s.Close()
		t.Fatal(err)
	}
	if c.snap == nil {
		c.s.Close()
		t.Fatal("the trial race never ran")
	}
	return c
}

// TestSharedTrialForkMatchesOwnFork checks that sharing a fork is exact:
// at the trigger cut of a real race, every candidate measured by another
// candidate's fork runs its own fork from the same snapshot, and its
// own measurement must equal the copy it was given, apart from the name.
func TestSharedTrialForkMatchesOwnFork(t *testing.T) {
	build := func(name string, opts workload.Options) *workload.Image {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return w.Build(opts)
	}
	cases := []struct {
		name string
		img  *workload.Image
		opts []Option
	}{
		{"histogram'", build("histogram'", workload.Options{Scale: 0.15, HeapBias: AttachBias}),
			[]Option{WithAutoPollInterval(0.15), WithSpeculativeRepair(true)}},
		{"linear_regression", build("linear_regression", workload.Options{Scale: 0.6}),
			[]Option{WithSpeculativeRepair(true)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cut := runToRaceCut(t, c.img, c.opts)
			s, slate := cut.s, cut.slate
			defer s.Close()
			// The reference forks restore from an encoded-then-decoded
			// copy, so the comparison also holds the race's in-memory
			// snapshot to the codec round trip.
			blob, err := cut.snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			shared := 0
			for i, l := range slate.leader {
				if l < 0 || l == i {
					continue
				}
				shared++
				name := slate.cands[i].Name()
				snap, err := DecodeSessionState(blob)
				if err != nil {
					t.Fatal(err)
				}
				own, _, err := s.runCandidate(snap, name, slate.prep[i], cut.pcs, s.trialBudget(), cut.base)
				if err != nil {
					t.Fatalf("%s's own fork: %v", name, err)
				}
				copied := cut.res.RepairTrials[i]
				if copied.Candidate != name {
					t.Fatalf("trial %d is %s, want %s", i, copied.Candidate, name)
				}
				if !reflect.DeepEqual(own, copied) {
					t.Errorf("%s: own fork measured %+v, the shared fork of %s gave %+v",
						name, own, slate.cands[l].Name(), copied)
				}
			}
			if shared == 0 {
				t.Fatal("no candidate shared a fork; the race ran one fork per candidate")
			}
		})
	}
}

// TestTrialForksLeaveSnapshotUntouched proves the race's forks only read
// the snapshot they share: at histogram′'s trigger cut, every group
// leader's fork runs concurrently from one captured state, as the race
// runs them, and the state must encode to the same bytes afterwards.
func TestTrialForksLeaveSnapshotUntouched(t *testing.T) {
	w, ok := workload.Get("histogram'")
	if !ok {
		t.Fatal("histogram' not registered")
	}
	cut := runToRaceCut(t, w.Build(workload.Options{Scale: 0.15, HeapBias: AttachBias}),
		[]Option{WithAutoPollInterval(0.15), WithSpeculativeRepair(true)})
	s, slate := cut.s, cut.slate
	defer s.Close()
	before, err := cut.snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	forks := 0
	for i, l := range slate.leader {
		if l != i {
			continue
		}
		forks++
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := s.runCandidate(cut.snap, slate.cands[i].Name(), slate.prep[i], cut.pcs, s.trialBudget(), cut.base)
			if err != nil || res.Err != "" {
				t.Errorf("%s's fork: %v %s", slate.cands[i].Name(), err, res.Err)
			}
		}()
	}
	wg.Wait()
	if forks < 2 {
		t.Fatalf("%d forks ran, want the decline baseline and at least one rewrite", forks)
	}
	after, err := cut.snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("the trial forks wrote the snapshot they restored from")
	}
}

// tailImage is trialFSImage with a private cooldown loop behind the
// contended one, as in the repair package's reorder test: the nearest
// and the farthest legal flush blocks differ, so ssb and reorder
// prepare different plans and the race must run both forks.
func tailImage(iters, tail int64) *workload.Image {
	b := isa.NewBuilder().At("tail.c", 100)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(102)
	b.Load(2, 10, 0, 8)
	b.Load(4, 0, 0, 8)
	b.Add(4, 4, 2)
	b.Store(0, 0, 4, 8)
	b.Line(104).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Line(110).Li(1, 0)
	b.Label("tail").Line(111)
	b.Load(2, 10, 0, 8)
	b.Store(10, 8, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, tail, "tail")
	b.Line(113).Halt()
	prog := b.Build()

	line := mem.HeapBase + 0x1000
	specs := []machine.ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line), 10: int64(line) + 1024}},
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(line) + 16, 10: int64(line) + 2048}},
	}
	return &workload.Image{Prog: prog, Specs: specs, Threads: 2}
}

// TestDistinctPlansRunOwnTrialForks keeps the unshared path alive: where
// ssb and reorder prepare different plans each runs its own fork, so
// their measurements differ, and the race stays deterministic across
// runs and across GOMAXPROCS.
func TestDistinctPlansRunOwnTrialForks(t *testing.T) {
	run := func(procs int) ([]repair.TrialResult, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var events []string
		s, err := Attach(tailImage(20_000, 20_000), WithPollInterval(50_000),
			WithSpeculativeRepair(true), WithTrialBudget(2_000_000),
			WithObserver(func(e Event) { events = append(events, fmt.Sprintf("%T|%v", e, e)) }))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res.RepairTrials, events
	}
	trials, events := run(1)
	byName := map[string]repair.TrialResult{}
	for _, tr := range trials {
		byName[tr.Candidate] = tr
	}
	ssb, reorder := byName["ssb"], byName["reorder"]
	if ssb.Err != "" || reorder.Err != "" || ssb.Cycles == 0 {
		t.Fatalf("ssb and reorder must both be measured: %+v", trials)
	}
	ssb.Candidate, reorder.Candidate = "", ""
	if ssb == reorder {
		t.Fatalf("ssb and reorder measured identically (%+v): their forks did not both run", ssb)
	}
	for _, procs := range []int{1, 4} {
		again, againEvents := run(procs)
		if !reflect.DeepEqual(again, trials) {
			t.Errorf("GOMAXPROCS=%d: trial results diverged:\n%+v\n%+v", procs, again, trials)
		}
		if !reflect.DeepEqual(againEvents, events) {
			t.Errorf("GOMAXPROCS=%d: event streams diverged (%d vs %d events)", procs, len(againEvents), len(events))
		}
	}
}
