package laser_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/repair"
	"repro/internal/workload"
	"repro/laser"
)

// speculativeRun drives one linear_regression session with speculative
// repair on and returns the result plus the rendered event sequence.
func speculativeRun(t *testing.T, seed int64) (*laser.Result, []string) {
	t.Helper()
	w, ok := workload.Get("linear_regression")
	if !ok {
		t.Fatal("linear_regression not registered")
	}
	img := w.Build(workload.Options{Scale: 0.6})
	var events []string
	s, err := laser.Attach(img,
		laser.WithSpeculativeRepair(true),
		laser.WithSeed(seed),
		laser.WithObserver(func(e laser.Event) {
			events = append(events, fmt.Sprintf("%T|%v", e, e))
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestSpeculativeRepairDeterministic is the session-level determinism
// acceptance: two speculative-repair runs with the same seed must
// produce identical event sequences — trial forks run concurrently, but
// results are emitted post-race in canonical candidate order and the
// selector is pure, so nothing about goroutine interleaving may leak
// into what observers see.
func TestSpeculativeRepairDeterministic(t *testing.T) {
	resA, eventsA := speculativeRun(t, 1)
	resB, eventsB := speculativeRun(t, 1)
	if !reflect.DeepEqual(eventsA, eventsB) {
		max := len(eventsA)
		if len(eventsB) > max {
			max = len(eventsB)
		}
		for i := 0; i < max; i++ {
			a, b := "<none>", "<none>"
			if i < len(eventsA) {
				a = eventsA[i]
			}
			if i < len(eventsB) {
				b = eventsB[i]
			}
			if a != b {
				t.Fatalf("event %d diverged:\nrun A: %s\nrun B: %s", i, a, b)
			}
		}
		t.Fatalf("event counts diverged: %d vs %d", len(eventsA), len(eventsB))
	}
	if resA.RepairWinner != resB.RepairWinner {
		t.Errorf("winners diverged: %q vs %q", resA.RepairWinner, resB.RepairWinner)
	}
	if !reflect.DeepEqual(resA.RepairTrials, resB.RepairTrials) {
		t.Errorf("trial results diverged:\n%+v\n%+v", resA.RepairTrials, resB.RepairTrials)
	}
}

// TestSpeculativeRepairIndependentOfGOMAXPROCS pins the trial race
// against scheduling: every fork is decoded, built and run in its own
// goroutine, so a session raced on one OS thread and on four must agree
// on the trial results, the winner and every event.
func TestSpeculativeRepairIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(procs int) (*laser.Result, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return speculativeRun(t, 1)
	}
	resA, eventsA := run(1)
	resB, eventsB := run(4)
	if len(resA.RepairTrials) != len(repair.Candidates()) {
		t.Fatalf("got %d trials, want the full slate of %d", len(resA.RepairTrials), len(repair.Candidates()))
	}
	if !reflect.DeepEqual(resA.RepairTrials, resB.RepairTrials) {
		t.Errorf("trial results diverged:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=4: %+v", resA.RepairTrials, resB.RepairTrials)
	}
	if resA.RepairWinner != resB.RepairWinner {
		t.Errorf("winners diverged: %q vs %q", resA.RepairWinner, resB.RepairWinner)
	}
	if !reflect.DeepEqual(eventsA, eventsB) {
		t.Errorf("event streams diverged: %d vs %d events", len(eventsA), len(eventsB))
	}
}

// TestSpeculativeRepairEventShape pins the trial event protocol on a
// workload whose trigger fires: one RepairTrialStarted announcing the
// full slate, four RepairTrialResult events in canonical candidate
// order with exactly one marked winner, and a RepairApplied (or
// RepairDeclined) naming that same candidate.
func TestSpeculativeRepairEventShape(t *testing.T) {
	w, _ := workload.Get("linear_regression")
	img := w.Build(workload.Options{Scale: 0.6})
	var started []laser.RepairTrialStarted
	var results []laser.RepairTrialResult
	var applied []laser.RepairApplied
	var declined []laser.RepairDeclined
	s, err := laser.Attach(img,
		laser.WithSpeculativeRepair(true),
		laser.WithObserver(func(e laser.Event) {
			switch ev := e.(type) {
			case laser.RepairTrialStarted:
				started = append(started, ev)
			case laser.RepairTrialResult:
				results = append(results, ev)
			case laser.RepairApplied:
				applied = append(applied, ev)
			case laser.RepairDeclined:
				declined = append(declined, ev)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}

	canonical := []string{}
	for _, c := range repair.Candidates() {
		canonical = append(canonical, c.Name())
	}
	if len(started) != 1 {
		t.Fatalf("RepairTrialStarted events = %d, want 1", len(started))
	}
	if !reflect.DeepEqual(started[0].Candidates, canonical) {
		t.Errorf("announced slate %v, want %v", started[0].Candidates, canonical)
	}
	if started[0].Budget == 0 {
		t.Error("trial budget not resolved")
	}
	var gotOrder []string
	winners := 0
	winner := ""
	for _, r := range results {
		gotOrder = append(gotOrder, r.Candidate)
		if r.Winner {
			winners++
			winner = r.Candidate
		}
	}
	if !reflect.DeepEqual(gotOrder, canonical) {
		t.Fatalf("trial results order %v, want canonical %v", gotOrder, canonical)
	}
	if winners != 1 {
		t.Fatalf("winner marks = %d, want exactly 1", winners)
	}
	if res.RepairWinner != winner {
		t.Errorf("Result.RepairWinner = %q, event winner = %q", res.RepairWinner, winner)
	}
	if len(res.RepairTrials) != len(canonical) {
		t.Errorf("Result.RepairTrials has %d entries, want %d", len(res.RepairTrials), len(canonical))
	}
	switch {
	case len(applied) == 1:
		if applied[0].Candidate != winner {
			t.Errorf("RepairApplied.Candidate = %q, want winner %q", applied[0].Candidate, winner)
		}
		if winner == repair.DeclineName {
			t.Error("applied a repair but the winner was the decline")
		}
	case len(declined) == 1:
		if declined[0].Winner != winner {
			t.Errorf("RepairDeclined.Winner = %q, want %q", declined[0].Winner, winner)
		}
	default:
		t.Fatalf("applied=%d declined=%d, want exactly one outcome event", len(applied), len(declined))
	}
}

// BenchmarkSpeculativeSession measures one whole repairing session as
// perfbench's fs_repair workload runs it: build histogram' at scale
// 0.15, attach with the scale-aware poll cadence and speculative
// repair, and drive it to completion — the trigger, the trial race,
// the install and the adopted winner's window.
func BenchmarkSpeculativeSession(b *testing.B) {
	w, ok := workload.Get("histogram'")
	if !ok {
		b.Fatal("histogram' not registered")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img := w.Build(workload.Options{Scale: 0.15, HeapBias: laser.AttachBias})
		s, err := laser.Attach(img, laser.WithAutoPollInterval(0.15), laser.WithSpeculativeRepair(true))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if !res.RepairApplied {
			b.Fatalf("no repair installed (trial winner %q)", res.RepairWinner)
		}
		s.Close()
	}
}
