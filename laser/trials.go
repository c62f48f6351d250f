package laser

// Speculative repair: when the §4.4 trigger first fires, instead of
// installing the default SSB rewrite outright, the session forks itself
// from the trigger cut — one fork per repair candidate, plus the
// explicit no-op baseline — runs each fork for a bounded cycle budget,
// and applies the candidate whose *measured* cycles won. Each fork is
// built and run in its own goroutine, from its own decoded copy of one
// whole-session snapshot, so no mutable structure is shared between the
// parent and any trial (or between trials); the parent's own state is
// untouched until the winner is installed at exactly the cut the trials
// measured.
//
// Determinism: every fork is an independent deterministic simulation
// from an identical snapshot, results are collected by candidate index
// and emitted in canonical candidate order after every fork finished,
// and the selector is a pure function of (seed, results) — so the same
// seed yields the same winner, events and rendered tables byte for
// byte, regardless of how the trial goroutines interleave.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/mem"
	"repro/internal/repair"
)

// applyMeasured is the speculative-repair first install: race the
// candidate slate from this cut, record the trial outcome, and install
// the measured winner. A "decline" winner returns the measured-decline
// error (the caller records it as RepairErr and emits RepairDeclined).
func (s *Session) applyMeasured(pcs []mem.Addr) error {
	trials, err := s.runTrials(pcs)
	if err != nil {
		// The trial harness itself failed (snapshot encode or fork
		// construction) — fall back to the direct rewrite rather than
		// losing the repair.
		return s.ctl.Apply(pcs)
	}
	winner := repair.SelectWinner(s.cfg.PEBS.Seed, trials)
	s.trials = trials
	s.trialWinner = winner
	for _, t := range trials {
		s.emit(RepairTrialResult{common: s.at(), Candidate: t.Candidate,
			Cycles: t.Cycles, Instructions: t.Instructions, HITMs: t.HITMs,
			Completed: t.Completed, Winner: t.Candidate == winner, Err: t.Err})
	}
	if winner == repair.DeclineName {
		return fmt.Errorf("laser: repair declined by measured trials: %s", trialSummary(trials))
	}
	cand, err := repair.CandidateByName(winner)
	if err != nil {
		return err
	}
	return s.ctl.ApplyCandidate(cand, pcs)
}

// runTrials forks one bounded trial per candidate from the current cut
// and returns the measured results in canonical candidate order.
func (s *Session) runTrials(pcs []mem.Addr) ([]repair.TrialResult, error) {
	budget := s.cfg.TrialBudget
	if budget == 0 {
		// Resolved here rather than in Validate so the configuration
		// fingerprint is independent of the poll cadence it derives
		// from. The session's PollInterval already carries the workload
		// scale (AutoPollInterval applied at attach), so scale 1 here
		// composes to the same budget as deriving from the base cadence.
		budget = AutoTrialBudget(s.cfg.PollInterval, 1)
	}
	blob, err := s.CaptureState().Encode()
	if err != nil {
		return nil, err
	}
	st := s.m.Stats()
	baseCycles, baseInstr := st.Cycles, st.Instructions
	baseHITM := st.HITMLoads + st.HITMStores

	cands := repair.Candidates()
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.Name()
	}
	s.emit(RepairTrialStarted{common: s.at(), Candidates: names, Budget: budget})

	// One goroutine per candidate decodes its own snapshot copy, builds
	// its fork, applies the candidate and runs the trial; each fork is an
	// independent machine and results land by candidate index.
	results := make([]repair.TrialResult, len(cands))
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	for i, cand := range cands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.runCandidate(blob, cand, pcs, budget, baseCycles, baseInstr, baseHITM)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// runCandidate builds the fork for one candidate from the encoded
// snapshot, installs the candidate, and drives the fork until the
// workload completes or the cycle budget is exhausted, returning the
// measured deltas from the cut. A candidate that refuses the region is
// out of the race, measured by nothing; a fork that cannot be built
// fails the whole race.
func (s *Session) runCandidate(blob []byte, cand repair.Candidate, pcs []mem.Addr, budget, baseCycles, baseInstr, baseHITM uint64) (repair.TrialResult, error) {
	res := repair.TrialResult{Candidate: cand.Name()}
	snap, err := DecodeSessionState(blob)
	if err != nil {
		return res, err
	}
	f, err := s.fork(snap)
	if err != nil {
		return res, err
	}
	defer f.Close()
	if cand.Name() != repair.DeclineName {
		if err := f.ctl.ApplyCandidate(cand, pcs); err != nil {
			res.Err = err.Error()
			return res, nil
		}
		f.repairApplied = true
		f.refreshRemap()
	}
	deadline := baseCycles + budget
	for {
		done, err := f.Step()
		if err != nil {
			res.Err = err.Error()
			break
		}
		if done {
			res.Completed = true
			break
		}
		if f.m.Stats().Cycles >= deadline {
			break
		}
	}
	st := f.m.Stats()
	res.Cycles = st.Cycles - baseCycles
	res.Instructions = st.Instructions - baseInstr
	res.HITMs = st.HITMLoads + st.HITMStores - baseHITM
	return res, nil
}

// fork builds a trial session from a snapshot, reusing the parent's
// image and resolved configuration verbatim (so the engine kind always
// matches). The fork has no observers and an inert repair trigger.
func (s *Session) fork(st *SessionState) (*Session, error) {
	set := settings{cfg: s.cfg, monitorAfterRepair: s.monitorAfterRepair}
	f, err := newSession(s.img, set)
	if err != nil {
		return nil, err
	}
	f.trial = true
	if err := f.restoreFrom(st); err != nil {
		return nil, err
	}
	return f, nil
}

// trialSummary renders the measured trials compactly for the
// measured-decline error, in canonical candidate order.
func trialSummary(trials []repair.TrialResult) string {
	parts := make([]string, 0, len(trials))
	for _, t := range trials {
		switch {
		case t.Err != "":
			parts = append(parts, fmt.Sprintf("%s refused", t.Candidate))
		case t.Completed:
			parts = append(parts, fmt.Sprintf("%s %d cycles (completed)", t.Candidate, t.Cycles))
		default:
			parts = append(parts, fmt.Sprintf("%s %d cycles", t.Candidate, t.Cycles))
		}
	}
	return strings.Join(parts, ", ")
}
