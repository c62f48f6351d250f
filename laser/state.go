package laser

// Durable session snapshots: SessionState composes the component
// snapshots (machine, detector pipeline, repair controller, PMU,
// driver) with the session's own monitor-loop state into one value,
// which Encode serializes with the compact codec of internal/codec.
// CaptureState is valid whenever the session is stopped at a Step
// boundary — the machine settles every in-flight engine segment before
// RunFor returns, so a boundary is a fully consistent cut.
// RestoreSession rebuilds the full stack from the workload image and
// overwrites it with the snapshot; restore is deterministically
// transparent: a restored session emits a byte-identical remaining
// event stream and final result versus a twin that was never
// interrupted.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/repair"
	"repro/internal/workload"
)

// SessionState is a whole-session snapshot. Fingerprint pins the
// configuration the snapshot was captured under: RestoreSession refuses
// a snapshot whose fingerprint does not match the configuration the
// restoring options produce, because a single divergent parameter would
// silently fork the simulation. Parallel additionally pins the
// execution engine — the intra-run engine's first-touch tables are not
// portable across engines, so a snapshot restores only onto the same
// engine kind it was captured on.
type SessionState struct {
	Fingerprint string
	Parallel    bool

	Machine *machine.State
	Pipe    *core.FullState
	Repair  *repair.State
	PEBS    *pebs.State
	Driver  *driver.State

	Next          uint64
	Done          bool
	Epoch         int
	EpochStart    float64
	EpochDrv      driver.Stats
	EpochPEBS     pebs.Stats
	Epochs        []EpochReport
	LastGen       int
	RepairApplied bool
	RepairErr     string
	TrialWinner   string
	Trials        []repair.TrialResult
	Covered       []mem.Addr // sorted
}

// cloneEpochs deep-copies archived epoch reports. Snapshots must not
// share *core.Report values with the live session — and trial forks
// restored from one snapshot must not share them with each other.
func cloneEpochs(eps []EpochReport) []EpochReport {
	if eps == nil {
		return nil
	}
	out := append([]EpochReport(nil), eps...)
	for i := range out {
		if r := out[i].Report; r != nil {
			cp := *r
			cp.Lines = append([]core.ReportLine(nil), r.Lines...)
			out[i].Report = &cp
		}
	}
	return out
}

// Fingerprint returns the fingerprint of the session's resolved
// configuration — the value a snapshot of this session would pin.
func (s *Session) Fingerprint() string { return s.cfg.Fingerprint() }

// CaptureState snapshots the session. Call it only from the driving
// goroutine, with the session stopped at a Step boundary.
func (s *Session) CaptureState() *SessionState {
	s.materialize()
	st := &SessionState{
		Fingerprint:   s.cfg.Fingerprint(),
		Parallel:      s.m.IntraRunParallel(),
		Machine:       s.m.CaptureState(),
		Pipe:          s.pipe.FullState(),
		Repair:        s.ctl.CaptureState(),
		PEBS:          s.pmu.CaptureState(),
		Driver:        s.drv.CaptureState(),
		Next:          s.next,
		Done:          s.done,
		Epoch:         s.epoch,
		EpochStart:    s.epochStart,
		EpochDrv:      s.epochDrv,
		EpochPEBS:     s.epochPEBS,
		Epochs:        cloneEpochs(s.epochs),
		LastGen:       s.lastGen,
		RepairApplied: s.repairApplied,
		TrialWinner:   s.trialWinner,
		Trials:        append([]repair.TrialResult(nil), s.trials...),
	}
	if s.repairErr != nil {
		st.RepairErr = s.repairErr.Error()
	}
	for pc := range s.covered {
		st.Covered = append(st.Covered, pc)
	}
	sort.Slice(st.Covered, func(i, j int) bool { return st.Covered[i] < st.Covered[j] })
	return st
}

// RestoreSession rebuilds a session from a snapshot. img and opts must
// describe the same workload image and configuration the captured
// session was attached with; the configuration is verified against the
// snapshot's fingerprint and the execution-engine kind against its
// Parallel flag (IntraRunParallelism may change worker count, but not
// flip between serial and intra-run engines). The restored session is
// stopped at the captured Step boundary; no events are re-emitted for
// the already-monitored prefix, so observers attached via opts see
// exactly the remaining stream.
func RestoreSession(img *workload.Image, st *SessionState, opts ...Option) (*Session, error) {
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	if fp := set.cfg.Fingerprint(); fp != st.Fingerprint {
		return nil, fmt.Errorf("laser: snapshot fingerprint %s does not match configuration fingerprint %s", st.Fingerprint, fp)
	}
	s, err := newSession(img, set)
	if err != nil {
		return nil, err
	}
	if s.m.IntraRunParallel() != st.Parallel {
		return nil, fmt.Errorf("laser: snapshot captured with intra-run parallel=%v, restore configured parallel=%v",
			st.Parallel, s.m.IntraRunParallel())
	}
	if err := s.restoreFrom(st); err != nil {
		return nil, err
	}
	return s, nil
}

// restoreFrom overwrites a freshly built session with a snapshot's
// component state. It is the shared core of RestoreSession and the
// speculative-repair trial forks (which skip the public entry point's
// fingerprint check: a fork reuses the parent's resolved configuration
// verbatim).
func (s *Session) restoreFrom(st *SessionState) error {
	// Order matters: the controller reinstalls the rewritten program
	// first (its SetProgram remaps the fresh machine's thread state, which
	// the machine snapshot then overwrites), the machine restore brings
	// back the true architectural state, and the pipeline's PC remap is
	// derived from the restored controller afterwards.
	if err := s.ctl.RestoreState(st.Repair); err != nil {
		return err
	}
	if err := s.m.RestoreState(st.Machine); err != nil {
		return err
	}
	if err := s.pipe.RestoreFullState(st.Pipe); err != nil {
		return err
	}
	// The remap table the captured pipeline held is the one installed at
	// controller generation LastGen. At a Step boundary that is the
	// current generation on every path that still feeds the pipeline; a
	// frozen (one-shot) pipeline can hold a stale generation, but it
	// never consumes another record, so nil is equivalent there.
	if st.LastGen == s.ctl.Generation() {
		s.pipe.SetPCRemap(s.ctl.PCRemap())
	} else {
		s.pipe.SetPCRemap(nil)
	}
	if err := s.pmu.RestoreState(st.PEBS); err != nil {
		return err
	}
	s.drv.RestoreState(st.Driver)

	s.next = st.Next
	s.done = st.Done
	s.epoch = st.Epoch
	s.epochStart = st.EpochStart
	s.epochDrv = st.EpochDrv
	s.epochPEBS = st.EpochPEBS
	s.epochs = cloneEpochs(st.Epochs)
	s.lastGen = st.LastGen
	s.repairApplied = st.RepairApplied
	if st.RepairErr != "" {
		s.repairErr = errors.New(st.RepairErr)
	}
	s.trialWinner = st.TrialWinner
	s.trials = append([]repair.TrialResult(nil), st.Trials...)
	if len(st.Covered) > 0 {
		s.covered = make(map[mem.Addr]bool, len(st.Covered))
		for _, pc := range st.Covered {
			s.covered[pc] = true
		}
	}
	if s.done {
		// The captured session had already finished (and archived its
		// final epoch); rebuild the Result from the restored components
		// without re-running finish's drain/emit side effects.
		seconds := s.m.Stats().Seconds()
		s.res = &Result{
			Stats:         s.m.Stats(),
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
	return nil
}

// Encode serializes the snapshot with the compact binary codec of
// internal/codec. The encoding is deterministic for a given snapshot: every
// component flattens its maps into sorted slices at capture time, and
// the codec writes any remaining map in key order. It carries no type
// information, so it restores only on the build that wrote it.
func (st *SessionState) Encode() ([]byte, error) {
	b, err := codec.Append(nil, st)
	if err != nil {
		return nil, fmt.Errorf("laser: encoding session state: %w", err)
	}
	return b, nil
}

// DecodeSessionState parses a snapshot produced by Encode. Malformed
// input is an error, and any input it accepts re-encodes to the same
// bytes.
func DecodeSessionState(b []byte) (*SessionState, error) {
	st := new(SessionState)
	if err := codec.Decode(b, st); err != nil {
		return nil, fmt.Errorf("laser: decoding session state: %w", err)
	}
	return st, nil
}
