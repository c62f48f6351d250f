// Package laser is the public face of the LASER reproduction: it wires
// the simulated Haswell machine, the PEBS HITM sampling hardware, the
// kernel driver, the LASERDETECT pipeline and the LASERREPAIR rewriter
// into the three-process architecture of the paper's Figure 8.
//
// The primary API is the Session: a long-lived, observable monitor
// around one workload image.
//
//	w, _ := workload.Get("linear_regression")
//	img := w.Build(workload.Options{HeapBias: laser.AttachBias})
//	s, _ := laser.Attach(img, laser.WithSAV(19))
//	defer s.Close()
//	res, _ := s.Wait()
//	fmt.Print(res.Report.Render())
//
// Sessions are configured with functional options (WithCores,
// WithRepair, WithPollInterval, WithSAV, WithMaxEpochs, ...), each of
// which sets a field of Config, the one description of a session's
// settings: Config.Validate is the only range check and
// Config.Fingerprint covers every field that can change a result.
// Sessions stream typed events (Events, WithObserver), produce reports
// at any moment mid-run (Snapshot, SnapshotAt), and run multiple
// detect→repair epochs: after a rewrite, post-repair HITM records are
// remapped to original-program PCs so detection re-arms instead of
// freezing.
//
// Attach (and RestoreSession, for a snapshot) is the one way to build a
// session. The paper's one-shot system — a single detect→repair pass
// with monitoring frozen at repair — is a session pinned with
// WithMaxEpochs(1) and WithPostRepairMonitoring(false); the evaluation
// harness runs every table that way.
package laser

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/repair"
	"repro/internal/workload"
)

// Config is the one description of a session's settings: Attach
// builds it from DefaultConfig and the options (each With* sets one
// field), Validate is its only range check, and Fingerprint hashes it.
// WithConfig passes a whole one in bulk.
type Config struct {
	Cores  int
	PEBS   pebs.Config
	Driver driver.Config
	// Detector's SAV is derived: Attach copies PEBS.SAV into it, so the
	// rates the detector reports always scale by the sampling in use.
	Detector     core.Config
	Repair       repair.Config
	EnableRepair bool
	// PostRepairMonitoring keeps feeding the detector once the last
	// permitted repair is installed, with post-repair records remapped
	// to original PCs. Off, the session freezes monitoring at the first
	// repair, as the paper's one-shot exit report does; the evaluation
	// harness runs that way.
	PostRepairMonitoring bool
	// PollInterval is the simulated-cycle slice between detector polls
	// of the driver device (and repair-trigger checks). 0 asks Attach to
	// derive it (see WithConfig).
	PollInterval uint64
	// MaxCycles caps the run (0 = effectively unbounded).
	MaxCycles uint64
	// IntraRunParallelism > 1 executes the simulated machine's
	// thread-private instruction stretches on that many host workers (see
	// WithIntraRunParallelism). Results are byte-identical to the serial
	// engine; 0 or 1 selects it.
	IntraRunParallelism int
	// MaxEpochs bounds how many detect→repair epochs a session may run.
	// 0 means DefaultMaxEpochs; 1 is the paper's one-shot pass.
	MaxEpochs int
	// SpeculativeRepair races competing repair candidates when the §4.4
	// trigger first fires: the session forks itself from the trigger
	// cut, measures every candidate in a bounded trial (one fork per
	// distinct plan, plus a no-op baseline), and applies the measured
	// winner — or declines with
	// measured numbers. Off, repair installs the default SSB rewrite
	// directly (the historical behaviour, zero added cost).
	SpeculativeRepair bool
	// TrialBudget is the simulated-cycle budget each speculative trial
	// fork may run. 0 derives 4 poll intervals at trial time, so the
	// budget follows the session's resolved cadence.
	TrialBudget uint64
}

// DefaultConfig matches the paper's evaluation setup: SAV 19, 1K HITMs/s
// report threshold, online repair enabled, and monitoring kept live
// across repairs.
func DefaultConfig() Config {
	return Config{
		Cores:                4,
		PEBS:                 pebs.DefaultConfig(),
		Driver:               driver.DefaultConfig(),
		Detector:             core.DefaultConfig(),
		Repair:               repair.DefaultConfig(),
		EnableRepair:         true,
		PostRepairMonitoring: true,
		PollInterval:         2_000_000, // ~0.6 ms at 3.4 GHz
	}
}

// Validate reports the first out-of-range value in the configuration;
// it is the only range check a session's settings pass through. It
// never changes a value: zero values are resolved by Attach before it
// runs (MaxEpochs 0 becomes DefaultMaxEpochs, PollInterval 0 the default
// cadence), so a zero Cores, PollInterval or PEBS.BufferCap reaching it
// is an error. Detector.SAV is not checked: Attach derives it from
// PEBS.SAV.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > coherence.MaxCores:
		return fmt.Errorf("laser: Cores (core count) must be in [1,%d], got %d", coherence.MaxCores, c.Cores)
	case c.IntraRunParallelism < 0:
		return fmt.Errorf("laser: IntraRunParallelism (worker count) must be non-negative, got %d", c.IntraRunParallelism)
	case c.MaxEpochs < 0:
		return fmt.Errorf("laser: MaxEpochs (epoch budget) must be non-negative, got %d", c.MaxEpochs)
	case c.PollInterval == 0:
		return fmt.Errorf("laser: PollInterval must be positive")
	case c.PEBS.SAV <= 0:
		return fmt.Errorf("laser: PEBS.SAV (sample-after value) must be positive, got %d", c.PEBS.SAV)
	case c.PEBS.BufferCap < 1:
		return fmt.Errorf("laser: PEBS.BufferCap must be positive, got %d", c.PEBS.BufferCap)
	case !(c.Detector.RateThreshold >= 0):
		return fmt.Errorf("laser: Detector.RateThreshold (report threshold) must be non-negative, got %g", c.Detector.RateThreshold)
	case !(c.Detector.RepairRateThreshold > 0):
		return fmt.Errorf("laser: Detector.RepairRateThreshold (repair threshold) must be positive, got %g", c.Detector.RepairRateThreshold)
	}
	return nil
}

// Result is everything a LASER run produces.
type Result struct {
	// Stats are the machine statistics of the monitored application.
	Stats *machine.Stats
	// Report is the contention report at exit. With post-repair
	// monitoring off these are the pre-repair aggregates; otherwise the
	// session keeps the report live across repairs, attributed to
	// original-program PCs.
	Report *core.Report
	// Pipeline exposes the detector for offline re-thresholding (Fig. 9).
	Pipeline *core.Pipeline
	// Epochs are the per-epoch windowed reports and monitoring costs, in
	// order; the last entry is the epoch the workload ended in.
	Epochs []EpochReport
	// RepairApplied says whether LASERREPAIR rewrote the program.
	RepairApplied bool
	// RepairErr records why a triggered repair was refused (nil if repair
	// never triggered or succeeded).
	RepairErr error
	// RepairWinner names the candidate the speculative trials selected
	// ("decline" for a measured decline); empty when trials never ran.
	RepairWinner string
	// RepairTrials carries the measured outcome of every speculative
	// trial, in canonical candidate order; nil when trials never ran.
	RepairTrials []repair.TrialResult
	// Seconds is the simulated duration.
	Seconds float64
	// DriverStats and PEBSStats expose the monitoring cost components
	// (Figure 12).
	DriverStats   driver.Stats
	PEBSStats     pebs.Stats
	DetectorCycle uint64
}

// AttachBias is the heap perturbation of running a process under the
// LASER harness: the detector's fork shifts the target's brk by one
// allocator chunk header — the §7.2 lu_ncb layout coincidence.
const AttachBias = mem.ChunkHeader

// RunNative executes a workload image without any monitoring.
func RunNative(img *workload.Image, cores int) (*machine.Stats, error) {
	return RunNativeParallel(img, cores, 1)
}

// RunNativeParallel is RunNative with intra-run parallelism: workers > 1
// executes the single simulated machine on that many host threads, with
// results byte-identical to RunNative.
func RunNativeParallel(img *workload.Image, cores, workers int) (*machine.Stats, error) {
	m := machine.New(img.Prog, machine.Config{
		Cores:       cores,
		Parallelism: workers,
		PrivateData: img.PrivateRanges(),
	}, img.Specs)
	img.Init(m)
	return m.Run()
}
