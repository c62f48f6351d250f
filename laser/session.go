package laser

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/repair"
	"repro/internal/workload"
)

// DefaultMaxEpochs is the detect→repair epoch budget of a Session when
// WithMaxEpochs is not given: enough to re-arm repeatedly without letting
// a pathological workload swap programs forever.
const DefaultMaxEpochs = 8

// Session errors.
var (
	// ErrClosed is returned by Step (and everything built on it) after
	// Close.
	ErrClosed = errors.New("laser: session closed")
	// ErrRunning is returned by Result while the workload has not yet
	// run to completion.
	ErrRunning = errors.New("laser: session still running")
)

// EpochReport describes one detect→repair epoch of a session: its
// windowed detection report and the monitoring activity it cost.
type EpochReport struct {
	// Epoch is the epoch's index, starting at 0.
	Epoch int
	// Seconds is the epoch's observation window (simulated).
	Seconds float64
	// Report is the detector's report over this epoch's records only.
	Report *core.Report
	// Repaired says whether the epoch ended with a repair hot-swap
	// (false for the final epoch, which ends with the workload).
	Repaired bool
	// Driver and PEBS are the monitoring-cost deltas incurred during
	// this epoch.
	Driver driver.Stats
	PEBS   pebs.Stats
}

// Session is a live LASER monitoring session around one workload image —
// the paper's Figure 8 architecture with an explicit lifecycle. Attach
// builds the full stack (machine, PEBS unit, kernel driver model,
// LASERDETECT pipeline, LASERREPAIR controller); Step advances the
// monitor by one poll interval; Run/Wait drive it to completion;
// Snapshot produces a mid-run report at any moment; Events and
// WithObserver stream typed events as monitoring unfolds.
//
// Unlike the paper's one-shot system, a session is multi-epoch: when
// LASERREPAIR rewrites the program, the rewrite's PC translation table
// is threaded into the detector, which re-arms and keeps attributing
// post-repair HITM records to the original binary. A later contention
// flare-up can trigger repair again (up to the epoch budget); each
// epoch's windowed report and monitoring cost land in Result.Epochs.
//
// A Session is not safe for fully concurrent use: drive it (Step, Run,
// RunFor, Wait, snapshots) from one goroutine at a time. Three things
// are safe from any goroutine, because a server hosting many sessions
// needs them to be: the Events channel may be consumed anywhere,
// Events itself may be called anywhere, and Close/Detach may race an
// in-flight Run or Step — the driving goroutine observes ErrClosed at
// its next step boundary, and both remain idempotent.
type Session struct {
	cfg                Config
	monitorAfterRepair bool

	// obsMu guards observers and stream: Events and Close/Detach may be
	// called from goroutines other than the driving one.
	obsMu     sync.Mutex
	observers []func(Event)
	stream    *eventStream

	img  *workload.Image
	m    *machine.Machine
	drv  *driver.Driver
	pmu  *pebs.Unit
	pipe *core.Pipeline
	ctl  *repair.Controller

	next   uint64 // next poll deadline (simulated cycles)
	done   bool
	closed atomic.Bool

	epoch      int
	epochStart float64      // seconds at the current epoch's start
	epochDrv   driver.Stats // stats snapshots at the epoch's start
	epochPEBS  pebs.Stats
	epochs     []EpochReport
	lastGen    int // repair controller generation last seen

	repairApplied bool
	repairErr     error
	// trial marks a speculative-repair fork and logs its window: the
	// fork's candidate was installed at fork time, its trigger only
	// notes that it would have fired (forks never recurse into trials),
	// and its events are queued for a parent that may adopt it.
	trial *trialLog
	// replay is the adopted winner's fork while its queued polls are
	// being handed out, replayed the number handed out so far; see
	// replayPoll.
	replay   *Session
	replayed int
	// muted silences emit while materialize re-simulates polls whose
	// events were already handed out.
	muted bool
	// trialWinner and trials record the speculative-trial outcome for
	// the Result (and the session snapshot).
	trialWinner string
	trials      []repair.TrialResult
	// covered are candidate PCs already handed to the repair controller;
	// the trigger only re-fires when fresh candidates appear, so a
	// residual false-sharing tail at an already-rewritten site does not
	// spin the trigger, while new contention later still repairs.
	covered map[mem.Addr]bool

	res *Result
}

// Attach builds the full LASER stack around an already-built workload
// image and returns the session, stopped at cycle zero. Options are
// applied over DefaultConfig; the first invalid option or configuration
// aborts the attach. The caller should Close the session when done with
// it.
//
// Note that Attach monitors the image exactly as built: the heap
// perturbation the fork-based attach inflicts on a process (AttachBias)
// is a build-time option (workload.Options.HeapBias).
func Attach(img *workload.Image, opts ...Option) (*Session, error) {
	st, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	return newSession(img, st)
}

// resolveSettings is the one way a session's configuration is built,
// shared by Attach and RestoreSession: options apply over DefaultConfig,
// MaxEpochs 0 takes DefaultMaxEpochs, the poll cadence is resolved, and
// the result is validated.
func resolveSettings(opts []Option) (settings, error) {
	st := settings{cfg: DefaultConfig(), monitorAfterRepair: true}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&st); err != nil {
			return settings{}, fmt.Errorf("laser: %w", err)
		}
	}
	if st.cfg.MaxEpochs == 0 {
		st.cfg.MaxEpochs = DefaultMaxEpochs
	}
	if err := resolvePollInterval(&st); err != nil {
		return settings{}, err
	}
	if err := st.cfg.Validate(); err != nil {
		return settings{}, err
	}
	return st, nil
}

// resolvePollInterval settles the session's poll cadence after every
// option has applied. The base is the configured cadence — DefaultConfig's
// or WithConfig's — or, when WithConfig carried none (zero), the default
// cadence. An explicit WithPollInterval is used verbatim;
// WithAutoPollInterval scales the base by the workload scale (it
// conflicts with WithPollInterval); and when nobody chose any cadence, a
// bounded run (MaxCycles set below the base) derives one from the
// machine's run budget, so even a short capped session gets several
// §4.4 trigger checks instead of none at all. A cadence carried in by
// WithConfig is never rewritten by the bounded-run rule: that caller
// chose it.
func resolvePollInterval(st *settings) error {
	base := st.cfg.PollInterval
	if base == 0 {
		base = DefaultConfig().PollInterval
	}
	if st.autoPollScale > 0 {
		if st.pollSource == pollExplicit {
			return errors.New("laser: WithAutoPollInterval conflicts with WithPollInterval: pick one")
		}
		st.cfg.PollInterval = AutoPollInterval(base, st.autoPollScale)
		return nil
	}
	st.cfg.PollInterval = base
	if st.pollSource == pollDefault && st.cfg.MaxCycles != 0 && st.cfg.MaxCycles < base {
		// boundedRunPolls checks per capped run, matching the full-length
		// budget: a 2M-cycle cadence polls a typical full-scale workload
		// a handful of times before exit.
		const boundedRunPolls = 4
		st.cfg.PollInterval = max(st.cfg.MaxCycles/boundedRunPolls, 1)
	}
	return nil
}

// newSession wires the Figure 8 processes together. st must come from
// resolveSettings (or be a copy of a session's resolved settings).
func newSession(img *workload.Image, st settings) (*Session, error) {
	cfg := st.cfg
	vm := img.VMMap()
	drv := driver.New(cfg.Driver)
	pmu := pebs.New(cfg.PEBS, cfg.Cores, img.Prog, vm, drv)
	pipe, err := core.NewPipeline(cfg.Detector, vm.Render(), img.Prog)
	if err != nil {
		return nil, fmt.Errorf("laser: %w", err)
	}

	var ctl *repair.Controller
	mcfg := machine.Config{
		Cores:       cfg.Cores,
		Probe:       pmu,
		MaxCycles:   cfg.MaxCycles,
		Parallelism: cfg.IntraRunParallelism,
		PrivateData: img.PrivateRanges(),
		OnAliasMiss: func(tid int, pc mem.Addr) {
			if ctl != nil {
				ctl.OnAliasMiss(tid, pc)
			}
		},
	}
	m := machine.New(img.Prog, mcfg, img.Specs)
	img.Init(m)
	ctl = repair.NewController(cfg.Repair, m)

	return &Session{
		cfg:                cfg,
		monitorAfterRepair: st.monitorAfterRepair,
		observers:          st.observers,
		img:                img,
		m:                  m,
		drv:                drv,
		pmu:                pmu,
		pipe:               pipe,
		ctl:                ctl,
		next:               cfg.PollInterval,
	}, nil
}

// Events returns the session's event channel. The channel never blocks
// the session (events queue internally without bound) and is closed by
// Close; consume it until closed, or end the session with Detach if the
// consumer may abandon it. Repeated calls return the same channel, and
// Events may be called from any goroutine.
func (s *Session) Events() <-chan Event {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if s.stream == nil {
		s.stream = newEventStream()
		s.observers = append(s.observers, s.stream.push)
		if s.closed.Load() {
			s.stream.close()
		}
	}
	return s.stream.ch
}

// emit delivers an event to every observer, synchronously and in order.
func (s *Session) emit(e Event) {
	if s.muted {
		return
	}
	s.obsMu.Lock()
	obs := s.observers
	s.obsMu.Unlock()
	for _, fn := range obs {
		fn(e)
	}
}

// EpochIndex returns the detection epoch in progress.
func (s *Session) EpochIndex() int {
	if p := s.replayedPoll(); p != nil {
		return p.epoch
	}
	return s.epoch
}

// Stats returns the monitored machine's statistics so far.
func (s *Session) Stats() *machine.Stats {
	if p := s.replayedPoll(); p != nil {
		return &p.stats
	}
	return s.m.Stats()
}

// Snapshot returns the detector's cumulative report at this moment,
// using the configured rate threshold — the exit report, available at
// any point mid-run.
func (s *Session) Snapshot() *core.Report {
	return s.SnapshotAt(s.cfg.Detector.RateThreshold)
}

// SnapshotAt is Snapshot with an explicit rate threshold: the Figure 9
// offline re-thresholding, applicable mid-run because the detector
// retains its aggregates.
func (s *Session) SnapshotAt(threshold float64) *core.Report {
	s.materialize()
	return s.pipe.ReportAt(s.m.Stats().Seconds(), threshold)
}

// EpochSnapshot returns the detector's report over only the current
// epoch's window so far.
func (s *Session) EpochSnapshot() *core.Report {
	s.materialize()
	return s.pipe.EpochReportAt(s.m.Stats().Seconds(), s.cfg.Detector.RateThreshold)
}

// SnapshotInto rebuilds dst as the cumulative report at this moment,
// reusing dst's buffers — the allocation-free variant of Snapshot for
// streaming consumers that poll every Step. dst is overwritten wholesale
// and stays valid until its next reuse.
func (s *Session) SnapshotInto(dst *core.Report) {
	s.SnapshotAtInto(dst, s.cfg.Detector.RateThreshold)
}

// SnapshotAtInto is SnapshotInto with an explicit rate threshold.
func (s *Session) SnapshotAtInto(dst *core.Report, threshold float64) {
	s.materialize()
	s.pipe.ReportAtInto(dst, s.m.Stats().Seconds(), threshold)
}

// EpochSnapshotInto is the allocation-free counterpart of EpochSnapshot.
func (s *Session) EpochSnapshotInto(dst *core.Report) {
	s.materialize()
	s.pipe.EpochReportAtInto(dst, s.m.Stats().Seconds(), s.cfg.Detector.RateThreshold)
}

// Step advances the session by one poll interval: the workload runs
// until the next poll deadline, the driver device is drained, records
// feed the detection pipeline, and the repair trigger is checked — one
// iteration of the Figure 8 monitor loop. It returns done=true once the
// workload has run to completion and the session result is final.
//
// A panicking workload (or detector/repair stage) is contained: the
// machine converts execution panics into a *machine.PanicError with its
// worker goroutines joined, a recover here catches the monitor side,
// and either way the session turns terminal — the error is returned,
// the panic never unwinds into the caller, and no goroutine leaks.
//
// After a speculative repair adopts its winning trial fork, the Steps
// covering the fork's window hand out its queued polls instead of
// simulating them again; what they return and emit is unchanged.
func (s *Session) Step() (done bool, err error) {
	if s.closed.Load() {
		return true, ErrClosed
	}
	if s.done {
		return true, nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.done = true
			done = true
			if pe, ok := r.(*machine.PanicError); ok {
				err = pe
			} else {
				err = &machine.PanicError{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	if s.replay != nil {
		return s.replayPoll(), nil
	}
	return s.poll()
}

// poll is one simulated iteration of the monitor loop.
func (s *Session) poll() (bool, error) {
	done, err := s.m.RunFor(s.next)
	if err != nil {
		s.done = true
		return true, err
	}
	s.ingest()
	if done {
		s.finish()
		return true, nil
	}
	s.maybeRepair()
	s.next += s.cfg.PollInterval
	return false, nil
}

// RunFor advances the session by at least the given number of simulated
// cycles (rounded up to whole poll intervals). It returns done=true if
// the workload completed within the slice.
func (s *Session) RunFor(cycles uint64) (bool, error) {
	deadline := s.Stats().Cycles + cycles
	for {
		done, err := s.Step()
		if done || err != nil {
			return done, err
		}
		if s.Stats().Cycles >= deadline {
			return false, nil
		}
	}
}

// Run drives the session to completion, checking ctx between steps. On
// cancellation it returns the context's error with a partial Result
// (pipeline state for offline analysis; no final stats).
func (s *Session) Run(ctx context.Context) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return s.partialResult(), err
		}
		done, err := s.Step()
		if err != nil {
			return s.partialResult(), err
		}
		if done {
			return s.Result()
		}
	}
}

// Wait drives the session to completion and returns the final Result.
func (s *Session) Wait() (*Result, error) {
	return s.Run(context.Background())
}

// Result returns the session's aggregated result. It is available once
// the workload has run to completion (Step returned done, or Run/Wait
// returned).
func (s *Session) Result() (*Result, error) {
	if s.res == nil {
		return nil, ErrRunning
	}
	return s.res, nil
}

// Close releases the session: the event stream is closed (after
// delivering anything still queued) and further Steps fail with
// ErrClosed. Closing neither aborts nor completes the simulated
// workload; a session may be closed at any point, and Close is
// idempotent. Close may be called from any goroutine, including while
// another drives Run or Step: the driver sees ErrClosed at its next
// step boundary.
//
// Close waits for nobody, but delivery of already-queued events to the
// Events channel does: a consumer that stops receiving before the
// channel closes strands the queued tail (and its pump goroutine). When
// the consumer cannot be trusted to drain — a network client that
// disconnected, a TTL-reaped server session — use Detach instead.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.obsMu.Lock()
	if s.stream != nil {
		s.stream.close()
	}
	s.obsMu.Unlock()
	return nil
}

// Detach ends the session like Close but discards events still queued
// for the Events channel instead of waiting for a consumer to drain
// them: the channel closes immediately and no goroutine is left behind,
// even when nobody is receiving. It is the right close for a session
// whose observer has gone away — laserd's TTL reaper uses it. Detach is
// idempotent, safe from any goroutine, and also releases a stream
// already closed gracefully but never drained.
func (s *Session) Detach() error {
	s.closed.Store(true)
	s.obsMu.Lock()
	if s.stream != nil {
		s.stream.abort()
	}
	s.obsMu.Unlock()
	return nil
}

// frozen reports whether monitoring results are frozen: a repair is
// installed and the session was asked for the one-shot behaviour, where
// the exit report keeps the pre-repair contention (the paper's
// detector does the same).
func (s *Session) frozen() bool {
	return s.repairApplied && !s.monitorAfterRepair
}

// ingest drains the driver device and feeds the pipeline (unless
// frozen), refreshing the PC remap table first so post-repair records
// attribute to the original program.
func (s *Session) ingest() {
	recs := s.drv.Poll()
	if s.frozen() {
		if len(recs) > 0 {
			s.emit(SampleBatch{common: s.at(), Records: len(recs), Dropped: true})
		}
		return
	}
	s.refreshRemap()
	s.pipe.Feed(recs)
	if len(recs) > 0 {
		s.emit(SampleBatch{common: s.at(), Records: len(recs)})
	}
}

// refreshRemap re-reads the repair controller's PC translation table
// after any program hot-swap (install, conservative refinement, undo).
func (s *Session) refreshRemap() {
	if gen := s.ctl.Generation(); gen != s.lastGen {
		s.pipe.SetPCRemap(s.ctl.PCRemap())
		s.lastGen = gen
	}
}

// at stamps an event with the current cycle and epoch.
func (s *Session) at() common {
	return common{Cycle: s.m.Stats().Cycles, EpochIndex: s.epoch}
}

// repairTrigger is the §4.4 trigger check, free of side effects: it
// returns the candidate PCs when the trigger fires with fresh
// candidates at this moment.
func (s *Session) repairTrigger(seconds float64) ([]mem.Addr, bool) {
	if !s.cfg.EnableRepair || s.repairErr != nil || s.epoch >= s.cfg.MaxEpochs {
		return nil, false
	}
	pcs, ok := s.pipe.RepairCandidates(seconds)
	if !ok || s.covered == nil {
		return pcs, ok
	}
	for _, pc := range pcs {
		if !s.covered[pc] {
			return pcs, true
		}
	}
	return nil, false
}

// maybeRepair runs the §4.4 trigger check and, when it fires with fresh
// candidates, hands them to LASERREPAIR. A successful hot-swap ends the
// epoch.
func (s *Session) maybeRepair() {
	seconds := s.m.Stats().Seconds()
	pcs, ok := s.repairTrigger(seconds)
	if !ok {
		return
	}
	if s.trial != nil {
		s.trial.retrigger = true
		return
	}
	s.emit(RepairTriggered{common: s.at(), Candidates: pcs})
	// Records still sitting in per-core PEBS buffers were sampled from
	// the program about to be replaced; flush and feed them under the
	// current remap table before the swap, or they would be translated
	// with the wrong table later. A one-shot session freezes monitoring
	// at the repair instead — there the stragglers are dropped, exactly
	// as the historical implementation did.
	if s.monitorAfterRepair {
		s.pmu.Drain()
		s.ingest()
	}
	genBefore := s.ctl.Generation()
	var applyErr error
	if s.cfg.SpeculativeRepair && !s.ctl.Applied() {
		// First install under speculative repair: race the candidate
		// slate from this cut and apply the measured winner.
		applyErr = s.applyMeasured(pcs)
	} else {
		applyErr = s.ctl.Apply(pcs)
	}
	s.settleRepair(pcs, genBefore, seconds, applyErr)
}

// settleRepair folds an install attempt into the monitor loop: a
// refusal becomes the session's repair error; a success marks the
// candidates covered and, when the controller swapped a new program
// in, re-reads the PC remap and ends the epoch. Trial forks finish
// their own install through it too, so an adopted fork starts its
// window in exactly the parent's state.
func (s *Session) settleRepair(pcs []mem.Addr, genBefore int, seconds float64, applyErr error) {
	if applyErr != nil {
		s.repairErr = applyErr
		s.emit(RepairDeclined{common: s.at(), Err: applyErr, Winner: s.trialWinner})
		return
	}
	if s.covered == nil {
		s.covered = make(map[mem.Addr]bool, len(pcs))
	}
	for _, pc := range pcs {
		s.covered[pc] = true
	}
	if s.ctl.Generation() == genBefore {
		// Every candidate was already covered by the installed rewrite;
		// nothing changed, so the epoch keeps running.
		return
	}
	s.repairApplied = true
	s.refreshRemap()
	s.emit(RepairApplied{common: s.at(), Conservative: s.ctl.Conservative(),
		Candidate: s.ctl.Candidate()})
	s.endEpoch(seconds, true)
}

// endEpoch archives the epoch's windowed report and monitoring cost and
// emits DetectionReport and EpochEnd. After a repair (repaired true) it
// also re-arms the pipeline for the next epoch; the final epoch — closed
// by the workload ending — leaves the pipeline's counters intact so
// offline analysis (RepairCandidates, re-thresholding) still sees them.
func (s *Session) endEpoch(seconds float64, repaired bool) {
	drvNow, pmuNow := s.drv.Stats(), s.pmu.Stats()
	ep := EpochReport{
		Epoch:    s.epoch,
		Seconds:  seconds - s.epochStart,
		Report:   s.pipe.EpochReportAt(seconds, s.cfg.Detector.RateThreshold),
		Repaired: repaired,
		Driver:   drvNow.Sub(s.epochDrv),
		PEBS:     pmuNow.Sub(s.epochPEBS),
	}
	s.epochs = append(s.epochs, ep)
	s.emit(DetectionReport{common: s.at(), Report: ep.Report})
	s.emit(EpochEnd{common: s.at(), Repaired: repaired, Report: ep.Report})
	if repaired {
		s.epoch++
		s.epochStart = seconds
		s.epochDrv, s.epochPEBS = drvNow, pmuNow
		s.pipe.BeginEpoch(seconds)
	}
}

// finish runs when the workload completes: residual PEBS buffers drain
// through the driver, the final epoch closes, and the Result is built.
func (s *Session) finish() {
	s.done = true
	s.pmu.Drain()
	s.ingest()

	st := s.m.Stats()
	seconds := st.Seconds()
	s.endEpoch(seconds, false)

	s.res = &Result{
		Stats:         st,
		Report:        s.pipe.Report(seconds),
		Pipeline:      s.pipe,
		RepairApplied: s.repairApplied,
		RepairErr:     s.repairErr,
		RepairWinner:  s.trialWinner,
		RepairTrials:  s.trials,
		Seconds:       seconds,
		DriverStats:   s.drv.Stats(),
		PEBSStats:     s.pmu.Stats(),
		DetectorCycle: s.pipe.DetectorCycles(),
		Epochs:        s.epochs,
	}
}

// partialResult is what Run returns alongside an error: the pipeline
// (for offline analysis) and the repair outcome so far, without final
// statistics.
func (s *Session) partialResult() *Result {
	s.materialize()
	return &Result{
		Pipeline:      s.pipe,
		RepairApplied: s.repairApplied,
		RepairErr:     s.repairErr,
		RepairWinner:  s.trialWinner,
		RepairTrials:  s.trials,
		Epochs:        s.epochs,
	}
}
