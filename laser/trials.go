package laser

// Speculative repair: when the §4.4 trigger first fires, instead of
// installing the default SSB rewrite outright, the session forks itself
// from the trigger cut, runs each fork for a bounded cycle budget, and
// applies the candidate whose *measured* cycles won. Every candidate is
// analyzed on the parent first: one that refuses costs no fork, and
// candidates whose plans are equal share one fork, run under the first
// of them in canonical order, whose result every member gets a copy of
// under its own name. The explicit no-op baseline gets a fork of its
// own. The race captures the parent's state once, and each fork is
// built and run in its own goroutine, restored from that one snapshot:
// every component's restore copies what it keeps, so the snapshot is
// only read, and no mutable structure is shared between the parent and
// any trial (or between trials); the rewritten program is rewritten
// once per plan and shared read-only.
// The parent's own state is untouched until the winner is installed at
// exactly the cut the trials measured. Equal results tie and ties go to
// canonical order, so the winner always leads its group; the race
// checks that rather than assume it.
//
// Adoption: a fork installs its candidate through the parent's own
// post-install path, so from the cut on it simulates exactly what the
// parent would. It queues each poll's events and end-of-poll
// observables instead of emitting them. The parent holds the winner's
// fork, hands its queued polls out one per Step, and then swaps the
// fork's stack in — the window the race already simulated is never
// simulated again. A fork is adoptable only if nothing in its window
// failed and the parent's trigger would not have fired there.
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
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/repair"
)

// trialLog is a trial fork's record of its window, kept for adoption.
type trialLog struct {
	polls   []trialPoll
	pending []Event // events of the poll in progress
	// retrigger notes that the parent's §4.4 trigger would have fired
	// after some poll of the window, which the fork cannot replay.
	retrigger bool
}

// trialPoll is one queued poll of a fork's window: what the parent's
// Step would have emitted and returned, and the observables it would
// have left behind.
type trialPoll struct {
	events []Event
	done   bool
	stats  machine.Stats
	epoch  int
}

func (l *trialLog) record(e Event) { l.pending = append(l.pending, e) }

// applyMeasured is the speculative-repair first install: race the
// candidate slate from this cut, record the trial outcome, and install
// the measured winner. A "decline" winner returns the measured-decline
// error (the caller records it as RepairErr and emits RepairDeclined).
// When the winner's fork is adoptable, the session holds it for replay.
func (s *Session) applyMeasured(pcs []mem.Addr) error {
	race, err := s.runTrials(pcs)
	if err != nil {
		// The trial harness itself failed (fork construction, a winner
		// that was never measured alone) — fall back to the direct
		// rewrite rather than losing the repair.
		return s.ctl.Apply(pcs)
	}
	s.trials = race.results
	s.trialWinner = race.winner
	for _, t := range race.results {
		s.emit(RepairTrialResult{common: s.at(), Candidate: t.Candidate,
			Cycles: t.Cycles, Instructions: t.Instructions, HITMs: t.HITMs,
			Completed: t.Completed, Winner: t.Candidate == race.winner, Err: t.Err})
	}
	if race.winner == repair.DeclineName {
		s.replay = race.fork
		return fmt.Errorf("laser: repair declined by measured trials: %s", trialSummary(race.results))
	}
	// The winner's fork already rewrote the program; the parent installs
	// the same prepared value, so it rewrites nothing.
	if err := s.ctl.ApplyPrepared(race.install); err != nil {
		return err
	}
	s.replay = race.fork
	return nil
}

// trialRace is the outcome of one trial race.
type trialRace struct {
	results []repair.TrialResult // canonical candidate order
	winner  string
	install *repair.Prepared // the winner's install; nil for a measured decline
	fork    *Session         // the winner's fork when adoptable, else nil
}

// trialSlate is the race's candidate slate, analyzed on the parent at
// the cut before any fork exists.
type trialSlate struct {
	cands   []repair.Candidate
	results []repair.TrialResult // refusals already settled
	prep    []*repair.Prepared   // nil for the decline and for refusals
	// leader maps each candidate to the candidate whose fork measures
	// it: itself, or the first candidate in canonical order with equal
	// plans. A refusal has no fork and leads nothing (-1).
	leader []int
}

// prepareSlate analyzes every candidate on the parent. A refusal costs
// no fork: its result carries the analysis error. Candidates whose
// prepared plans are equal would simulate byte for byte the same
// window, so they share the fork of the group's first member.
func (s *Session) prepareSlate(pcs []mem.Addr) *trialSlate {
	cands := repair.Candidates()
	sl := &trialSlate{cands: cands, results: make([]repair.TrialResult, len(cands)),
		prep: make([]*repair.Prepared, len(cands)), leader: make([]int, len(cands))}
	for i, cand := range cands {
		sl.results[i].Candidate = cand.Name()
		sl.leader[i] = i
		if cand.Name() == repair.DeclineName {
			continue
		}
		p, err := s.ctl.Prepare(cand, pcs)
		if err != nil {
			sl.results[i].Err = err.Error()
			sl.leader[i] = -1
			continue
		}
		sl.prep[i] = p
		for j := range i {
			if sl.leader[j] == j && sl.prep[j] != nil && sl.prep[j].SamePlans(p) {
				sl.leader[i] = j
				break
			}
		}
	}
	return sl
}

// trialBudget is the cycle budget of each trial fork.
func (s *Session) trialBudget() uint64 {
	if s.cfg.TrialBudget != 0 {
		return s.cfg.TrialBudget
	}
	// Resolved here rather than in Validate so the configuration
	// fingerprint is independent of the poll cadence it derives from.
	// The session's PollInterval already carries the workload scale
	// (AutoPollInterval applied at attach), so scale 1 here composes to
	// the same budget as deriving from the base cadence.
	return AutoTrialBudget(s.cfg.PollInterval, 1)
}

// runTrials races the candidate slate from the current cut: one fork per
// group of candidates with equal plans, none for a refusal. Every member
// of a group gets a copy of its leader's measurement under its own name,
// so the results stay one per candidate in canonical order. The winner
// must lead its group — equal results tie and ties go to canonical
// order — and a race whose winner does not is an error, never an
// install of a program that was not measured under its name.
func (s *Session) runTrials(pcs []mem.Addr) (*trialRace, error) {
	budget := s.trialBudget()
	snap := s.CaptureState()
	st := s.m.Stats()
	base := trialBase{cycles: st.Cycles, instr: st.Instructions, hitms: st.HITMLoads + st.HITMStores}

	sl := s.prepareSlate(pcs)
	names := make([]string, len(sl.cands))
	for i, c := range sl.cands {
		names[i] = c.Name()
	}
	s.emit(RepairTrialStarted{common: s.at(), Candidates: names, Budget: budget})

	// One goroutine per group leader restores its fork from the shared
	// snapshot, installs the candidate and runs the trial; each fork is
	// an independent machine and results land by candidate index.
	results := sl.results
	forks := make([]*Session, len(sl.cands))
	errs := make([]error, len(sl.cands))
	var wg sync.WaitGroup
	for i := range sl.cands {
		if sl.leader[i] != i {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], forks[i], errs[i] = s.runCandidate(snap, names[i], sl.prep[i], pcs, budget, base)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, l := range sl.leader {
		if l >= 0 && l != i {
			results[i] = results[l]
			results[i].Candidate = names[i]
		}
	}
	winner := repair.SelectWinner(s.cfg.PEBS.Seed, results)
	w := slices.Index(names, winner)
	if sl.leader[w] != w {
		return nil, fmt.Errorf("laser: trial winner %s was not measured by its own fork", winner)
	}
	return &trialRace{results: results, winner: winner, install: sl.prep[w], fork: forks[w]}, nil
}

// trialBase is the parent's statistics at the cut, which every trial's
// deltas are measured from.
type trialBase struct {
	cycles, instr, hitms uint64
}

// runCandidate builds one fork from the snapshot, installs the
// prepared candidate (nil: the decline baseline), and drives the fork
// until the workload completes or the cycle budget is exhausted,
// returning the measured deltas from the cut and the fork if it is
// adoptable. A fork that cannot be built fails the whole race. The
// snapshot is only read, so concurrent forks may share it.
func (s *Session) runCandidate(snap *SessionState, name string, prep *repair.Prepared, pcs []mem.Addr, budget uint64, base trialBase) (repair.TrialResult, *Session, error) {
	res := repair.TrialResult{Candidate: name}
	f, err := s.fork(snap)
	if err != nil {
		return res, nil, err
	}
	// Finish the trigger poll the way the parent will after installing
	// this candidate; its events are the parent's to emit.
	seconds := f.m.Stats().Seconds()
	genBefore := f.ctl.Generation()
	applyErr := repair.ErrDeclined
	if prep != nil {
		if err := f.ctl.ApplyPrepared(prep); err != nil {
			return res, nil, err
		}
		applyErr = nil
	}
	f.settleRepair(pcs, genBefore, seconds, applyErr)
	f.trial.pending = nil
	f.next += f.cfg.PollInterval

	deadline := base.cycles + budget
	for {
		done, err := f.Step()
		if err != nil {
			res.Err = err.Error()
			break
		}
		f.trial.polls = append(f.trial.polls, trialPoll{events: f.trial.pending, done: done,
			stats: cloneStats(f.m.Stats()), epoch: f.epoch})
		f.trial.pending = nil
		if done {
			res.Completed = true
			break
		}
		if f.m.Stats().Cycles >= deadline {
			break
		}
	}
	st := f.m.Stats()
	res.Cycles = st.Cycles - base.cycles
	res.Instructions = st.Instructions - base.instr
	res.HITMs = st.HITMLoads + st.HITMStores - base.hitms
	if res.Err != "" || f.trial.retrigger {
		return res, nil, nil
	}
	return res, f, nil
}

// fork builds a trial session from a snapshot, reusing the parent's
// image and resolved configuration verbatim (so the engine kind always
// matches). The fork's events are queued in its trial log rather than
// delivered, and its repair trigger only notes that it would have
// fired: forks never repair, so never recurse into trials.
func (s *Session) fork(st *SessionState) (*Session, error) {
	log := new(trialLog)
	set := settings{cfg: s.cfg, observers: []func(Event){log.record}}
	f, err := newSession(s.img, set)
	if err != nil {
		return nil, err
	}
	f.trial = log
	if err := f.restoreFrom(st); err != nil {
		return nil, err
	}
	return f, nil
}

// replayPoll hands out the adopted fork's next queued poll: its events
// reach the observers exactly as the parent's own Step would have
// emitted them. After the last poll the fork's stack is swapped in.
func (s *Session) replayPoll() bool {
	polls := s.replay.trial.polls
	p := &polls[s.replayed]
	s.replayed++
	for _, e := range p.events {
		s.emit(e)
	}
	if s.replayed == len(polls) {
		s.adopt()
	}
	return p.done
}

// replayedPoll returns the queued poll handed out last, or nil outside
// a replay and before its first poll.
func (s *Session) replayedPoll() *trialPoll {
	if s.replayed == 0 {
		return nil
	}
	return &s.replay.trial.polls[s.replayed-1]
}

// adopt swaps the replayed fork's stack and monitor-loop state in. The
// machine and controller move together: the machine's alias-miss hook
// calls the fork's controller. The trial outcome and the repair error
// stay the parent's — the fork ran before the race was decided.
func (s *Session) adopt() {
	f := s.replay
	s.replay, s.replayed = nil, 0
	s.m, s.drv, s.pmu, s.pipe, s.ctl = f.m, f.drv, f.pmu, f.pipe, f.ctl
	s.next, s.done = f.next, f.done
	s.epoch, s.epochStart, s.epochs = f.epoch, f.epochStart, f.epochs
	s.epochDrv, s.epochPEBS = f.epochDrv, f.epochPEBS
	s.lastGen, s.repairApplied, s.covered = f.lastGen, f.repairApplied, f.covered
	if f.res != nil {
		res := *f.res
		res.RepairErr, res.RepairWinner, res.RepairTrials = s.repairErr, s.trialWinner, s.trials
		s.res = &res
	}
}

// materialize ends a replay early, for an observer that needs the whole
// stack: the fork is dropped and the parent's own stack, still at the
// cut, silently re-simulates the polls already handed out. The fork's
// window was adoptable, so those polls neither fail nor fire the
// trigger, and poll's results carry nothing to act on.
func (s *Session) materialize() {
	if s.replay == nil {
		return
	}
	n := s.replayed
	s.replay, s.replayed = nil, 0
	s.muted = true
	defer func() { s.muted = false }()
	for i := 0; i < n; i++ {
		_, _ = s.poll()
	}
}

// cloneStats deep-copies machine statistics for a queued poll.
func cloneStats(st *machine.Stats) machine.Stats {
	c := *st
	c.CoreCycles = append([]uint64(nil), st.CoreCycles...)
	c.HITMByPC = maps.Clone(st.HITMByPC)
	return c
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
