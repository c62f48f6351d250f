// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) from the simulated system: Figure 3 (HITM record
// characterization), Tables 1–2 (detection accuracy and contention types),
// Figure 9 (rate-threshold sweep), Figures 10–14 (performance, repair and
// baseline comparisons). Each runner returns structured results plus a
// plain-text rendering.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/baseline/sheriff"
	"repro/internal/baseline/vtune"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pebs"
	"repro/internal/repair"
	"repro/internal/workload"
	"repro/laser"
)

// Config scales the experiments. Accuracy experiments need long simulated
// windows (band-rate lines produce events every ~1.5M cycles); performance
// experiments need several runs of moderate length.
type Config struct {
	// AccuracyScale multiplies workload iteration counts for Table 1/2
	// and Figure 9.
	AccuracyScale float64
	// PerfScale does the same for Figures 10–14.
	PerfScale float64
	// Runs per data point for performance figures; the paper uses 10
	// with min/max dropped.
	Runs int
	// SpeculativeRepair races the repair-candidate slate in forked
	// bounded trials before installing (laser.WithSpeculativeRepair) on
	// the Figure 11 automatic rows, which then report the measured
	// winner — or a measured, trial-backed decline. The other
	// performance figures always run the direct rewrite: their subject
	// is monitoring overhead, not repair policy.
	SpeculativeRepair bool
}

// DefaultConfig is the full-fidelity setup used by the benchmarks.
func DefaultConfig() Config {
	return Config{AccuracyScale: 20, PerfScale: 1, Runs: 3, SpeculativeRepair: true}
}

// QuickConfig is a reduced setup for tests.
func QuickConfig() Config {
	return Config{AccuracyScale: 3, PerfScale: 0.3, Runs: 1, SpeculativeRepair: true}
}

// envWarned dedupes the malformed LASER_BENCH_PARALLEL warning: one
// stderr line per distinct value, so a harness that consults the knob on
// every phase does not spam.
var envWarned sync.Map // value → struct{}

// envWarnWriter is where Parallelism's warnings go; tests swap it to
// capture them.
var envWarnWriter io.Writer = os.Stderr

// Parallelism returns the worker count of the experiment pool: the value
// of LASER_BENCH_PARALLEL when set to a positive integer (1 recovers the
// fully serial harness), otherwise GOMAXPROCS. A malformed or
// non-positive value warns once on stderr and falls back to GOMAXPROCS,
// instead of silently behaving as if the variable were unset. Runs share
// no mutable state, so independent (workload, tool, seed) simulations
// parallelize freely; results are assembled by index, which keeps every
// rendered table byte-identical to the serial order no matter how the
// runs interleave. Each simulation runs on the serial engine: a phase
// with fewer runs than workers leaves the rest idle, but a measured
// split that moved them inside the machines lost wall time at CI scale.
func Parallelism() int {
	if s := os.Getenv("LASER_BENCH_PARALLEL"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
		if _, dup := envWarned.LoadOrStore(s, struct{}{}); !dup {
			fmt.Fprintf(envWarnWriter,
				"experiments: ignoring LASER_BENCH_PARALLEL=%q: want an integer >= 1; falling back to GOMAXPROCS\n", s)
		}
	}
	return runtime.GOMAXPROCS(0)
}

// simCores is the simulated core count of every evaluation machine (the
// paper's 4-core Haswell); runLaser/runNative/runVTune/runSheriff all
// build machines with it.
const simCores = 4

// fp hashes a configuration value's %+v rendering into a short key
// fingerprint. Field renames or additions change the rendering and thus
// the fingerprint; code changes need no key component, because results
// never outlive the process that computed them.
func fp(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:12])
}

// forEach runs fn(0)..fn(n-1) on the worker pool. Each index's results
// must be written to that index's slot by fn; forEach returns the
// lowest-index error so failures are deterministic too.
func forEach(n int, fn func(i int) error) error {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Stop claiming new work once any task has failed.
				// Indices are claimed in order and claimed tasks run to
				// completion, so every index below the lowest recorded
				// error still runs — the error returned is exactly the
				// serial harness's first error.
				if failed.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// laserRun is the memoized result of one full-stack LASER run:
// everything the figures and tables consume. The detector state is
// retained as a core.PipeState snapshot, so the exit report — and any
// offline re-thresholding (Figure 9) — is rebuilt on demand.
type laserRun struct {
	Stats *machine.Stats
	Pipe  *core.PipeState
	// RepairApplied says whether LASERREPAIR rewrote the program;
	// RepairDeclined (with RepairErrMsg) records a triggered repair the
	// controller refused.
	RepairApplied  bool
	RepairDeclined bool
	RepairErrMsg   string
	// Winner and Trials record the speculative-repair outcome when the
	// run raced candidates before installing: the selected candidate
	// (repair.DeclineName for a measured decline) and the measured
	// per-candidate trial results, in canonical candidate order. Both
	// are zero for direct-rewrite runs.
	Winner        string
	Trials        []repair.TrialResult
	Seconds       float64
	DriverStats   driver.Stats
	PEBSStats     pebs.Stats
	DetectorCycle uint64
}

// Report rebuilds the exit contention report at the configured default
// threshold.
func (r *laserRun) Report() *core.Report { return r.Pipe.Report(r.Seconds) }

// RepairError returns why a triggered repair was refused (nil if repair
// never triggered or succeeded) — laser.Result.RepairErr, reconstructed
// from the recorded message.
func (r *laserRun) RepairError() error {
	if !r.RepairDeclined {
		return nil
	}
	return errors.New(r.RepairErrMsg)
}

// Each simulation flavor below has a job: its Key and the computation
// the key stands for. The figure runners recall a job through the memo
// (runNative, runLaser, ...), and the work-unit enumeration wraps the
// very same job as a unit (registry.go), so the executor fills exactly
// the entries the runners will look up.

// laserKey builds the key (and the exact configuration) of one
// full-stack LASER run.
func laserKey(name string, scale float64, repairOn, spec bool, sav int, seed int64) (Key, laser.Config) {
	cfg := laser.DefaultConfig()
	if sav > 0 {
		cfg.PEBS.SAV = sav
	}
	cfg.PEBS.Seed = seed
	// The scale-aware trigger cadence (the PR 4 Figure 11 fix) now lives
	// in the laser package itself, shared with raw Attach users.
	cfg.PollInterval = laser.AutoPollInterval(cfg.PollInterval, scale)
	cfg.EnableRepair = repairOn
	// SpeculativeRepair enters the configuration fingerprint below, so
	// trial-on and trial-off runs never share a key.
	cfg.SpeculativeRepair = spec && repairOn
	cfg.MaxEpochs = 1
	return Key{
		Tool: "laser", Workload: name, Scale: scale,
		SAV: cfg.PEBS.SAV, Seed: seed,
		Extra:  fmt.Sprintf("repair=%t frozen=true bias=%d", repairOn, laser.AttachBias),
		Config: cfg.Fingerprint(),
	}, cfg
}

// laserJob is one full-stack LASER run.
func laserJob(name string, scale float64, repairOn, spec bool, sav int, seed int64) (Key, func() (*laserRun, error)) {
	key, cfg := laserKey(name, scale, repairOn, spec, sav, seed)
	return key, laserCompute(cfg, name, scale)
}

// runLaser executes one workload under the full LASER stack, via the
// Session API. The harness reproduces the paper's runs exactly: a single
// detect→repair epoch with monitoring frozen after a rewrite — the
// paper's one-shot semantics, pinned with options — so every rendered
// table and figure is byte-identical to the one-shot system. Results
// are memoized.
func runLaser(name string, scale float64, repairOn, spec bool, sav int, seed int64) (*laserRun, error) {
	return recall(laserJob(name, scale, repairOn, spec, sav, seed))
}

// laserProbeJob is a speculative probe run: a laser run with repair
// and trials on whose detector triggers on all contention
// (RepairAllContention) at the detection rate threshold, so workloads
// whose contention classifies as true sharing — dedup's lock queues,
// reverse_index's allocator — still reach the trial engine and earn a
// measured verdict. The widened detector enters both the Extra tag and
// the configuration fingerprint, so probe runs never share a key with
// ordinary repair runs.
func laserProbeJob(name string, scale float64, sav int, seed int64) (Key, func() (*laserRun, error)) {
	key, cfg := laserKey(name, scale, true, true, sav, seed)
	cfg.Detector.RepairAllContention = true
	cfg.Detector.RepairRateThreshold = cfg.Detector.RateThreshold
	// The probe samples every HITM (SAV 1) and polls the trigger eight
	// times as often: it exists to gather trial evidence, not to bound
	// monitoring overhead, and at the paper's cadence a workload whose
	// contention is concentrated in a brief final phase —
	// reverse_index's merge — delivers its whole record budget in the
	// final drain, after the last trigger poll ever ran.
	cfg.PEBS.SAV = 1
	cfg.Detector.SAV = 1
	key.SAV = 1
	if cfg.PollInterval >= 8 {
		cfg.PollInterval /= 8
	}
	// A single-record buffer delivers each sample at the next interrupt
	// instead of parking up to 63 records per core until the exit drain
	// — a low-rate workload would otherwise never surface evidence
	// while the trigger still polls.
	cfg.PEBS.BufferCap = 1
	key.Extra += " probe=true"
	key.Config = cfg.Fingerprint()
	return key, laserCompute(cfg, name, scale)
}

// runLaserProbe executes one speculative probe run (laserProbeJob).
func runLaserProbe(name string, scale float64, sav int, seed int64) (*laserRun, error) {
	return recall(laserProbeJob(name, scale, sav, seed))
}

func laserCompute(cfg laser.Config, name string, scale float64) func() (*laserRun, error) {
	return func() (*laserRun, error) {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		img := w.Build(workload.Options{Scale: scale, HeapBias: laser.AttachBias})
		s, err := laser.Attach(img,
			laser.WithConfig(cfg),
			laser.WithPostRepairMonitoring(false))
		if err != nil {
			return nil, err
		}
		defer s.Close()
		res, err := s.Wait()
		if err != nil {
			return nil, err
		}
		lr := &laserRun{
			Stats:         res.Stats,
			Pipe:          res.Pipeline.State(),
			RepairApplied: res.RepairApplied,
			Winner:        res.RepairWinner,
			Trials:        res.RepairTrials,
			Seconds:       res.Seconds,
			DriverStats:   res.DriverStats,
			PEBSStats:     res.PEBSStats,
			DetectorCycle: res.DetectorCycle,
		}
		if res.RepairErr != nil {
			lr.RepairDeclined, lr.RepairErrMsg = true, res.RepairErr.Error()
		}
		return lr, nil
	}
}

// nativeJob is one native (unmonitored) run.
func nativeJob(name string, scale float64, variant workload.Variant) (Key, func() (*machine.Stats, error)) {
	key := Key{
		Tool: "native", Workload: name, Scale: scale,
		Variant: fmt.Sprintf("v%d", variant),
		Config:  fp(struct{ Cores int }{simCores}),
	}
	return key, func() (*machine.Stats, error) {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		img := w.Build(workload.Options{Scale: scale, Variant: variant})
		return laser.RunNative(img, simCores)
	}
}

// runNative executes one workload without monitoring and returns its
// stats. The result is memoized; callers must treat it as read-only.
// Figure 10 alone needs the same baseline for its LASER and VTune
// columns Runs times each, and Figures 11/12/14 revisit many of the
// same keys.
func runNative(name string, scale float64, variant workload.Variant) (*machine.Stats, error) {
	return recall(nativeJob(name, scale, variant))
}

// vtuneOutcome bundles a VTune profiling run.
type vtuneOutcome struct {
	Lines   []vtune.ReportLine
	Stats   *machine.Stats
	Seconds float64
}

// vtuneJob is one run under the VTune model.
func vtuneJob(name string, scale float64, seed int64) (Key, func() (*vtuneOutcome, error)) {
	vcfg := vtune.DefaultConfig()
	vcfg.Seed = seed
	key := Key{
		Tool: "vtune", Workload: name, Scale: scale, Seed: seed,
		Extra: fmt.Sprintf("bias=%d", laser.AttachBias),
		Config: fp(struct {
			V     vtune.Config
			Cores int
		}{vcfg, simCores}),
	}
	return key, func() (*vtuneOutcome, error) {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		img := w.Build(workload.Options{Scale: scale, HeapBias: laser.AttachBias})
		prof := vtune.New(vcfg, simCores, img.Prog, img.VMMap())
		ei, el := prof.MachineConfig()
		m := machine.New(img.Prog, machine.Config{
			Cores: simCores, Probe: prof, ExtraInstrCycles: ei, ExtraLoadCycles: el,
		}, img.Specs)
		img.Init(m)
		st, err := m.Run()
		if err != nil {
			return nil, err
		}
		return &vtuneOutcome{Lines: prof.Report(st.Seconds()), Stats: st, Seconds: st.Seconds()}, nil
	}
}

// runVTune executes one workload under the VTune model, memoized.
func runVTune(name string, scale float64, seed int64) (*vtuneOutcome, error) {
	return recall(vtuneJob(name, scale, seed))
}

// sheriffOutcome bundles a Sheriff run, either mode. Stats is nil for
// non-OK statuses.
type sheriffOutcome struct {
	Status   sheriff.Status
	Findings []sheriff.Finding
	Stats    *machine.Stats
}

// sheriffJob is one run under the Sheriff execution model, gate
// ignored (runSheriff applies it).
func sheriffJob(name string, scale float64, mode sheriff.Mode, force bool) (Key, func() (*sheriffOutcome, error)) {
	key := Key{
		Tool: "sheriff", Workload: name, Scale: scale,
		Extra: fmt.Sprintf("mode=%d force=%t", mode, force),
		Config: fp(struct {
			S         sheriff.Config
			Cores     int
			MaxCycles uint64
		}{sheriff.DefaultConfig(), simCores, 1 << 38}),
	}
	return key, func() (*sheriffOutcome, error) {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
		img := w.Build(workload.Options{Scale: scale})
		det := sheriff.NewDetector(mode, sheriff.DefaultConfig(), img.ResolveLine)
		m := machine.New(img.Prog, machine.Config{
			Cores: simCores, PrivateMemory: true, OnCommit: det.OnCommit,
			MaxCycles: 1 << 38,
		}, img.Specs)
		img.Init(m)
		st, err := m.Run()
		if err != nil {
			// Runtime error under the Sheriff model: the Table 1 "x".
			return &sheriffOutcome{Status: sheriff.Crash}, nil
		}
		return &sheriffOutcome{Status: sheriff.OK, Findings: det.Findings(), Stats: st}, nil
	}
}

// runSheriff executes one workload under the Sheriff execution model,
// memoized. Gated workloads return their status without running (or
// memoizing), unless force is set (the Figure 14 simlarge runs).
func runSheriff(name string, scale float64, mode sheriff.Mode, force bool) (*sheriffOutcome, error) {
	w, ok := workload.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	if w.Sheriff != sheriff.OK && !force {
		return &sheriffOutcome{Status: w.Sheriff}, nil
	}
	return recall(sheriffJob(name, scale, mode, force))
}

// normalizedRuntime runs a configuration Runs times (varying the sampling
// seed) and returns the trimmed-mean runtime normalized to the native
// trimmed mean.
func normalizedRuntime(cfg Config, name string, run func(seed int64) (uint64, error)) (float64, error) {
	native, err := repeated(cfg, func(int64) (uint64, error) {
		st, err := runNative(name, cfg.PerfScale, workload.Native)
		if err != nil {
			return 0, err
		}
		return st.Cycles, nil
	})
	if err != nil {
		return 0, err
	}
	tool, err := repeated(cfg, run)
	if err != nil {
		return 0, err
	}
	if native == 0 {
		return 0, fmt.Errorf("experiments: %s native ran in zero cycles", name)
	}
	return tool / native, nil
}

func repeated(cfg Config, run func(seed int64) (uint64, error)) (float64, error) {
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	xs := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		c, err := run(int64(i + 1))
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(c))
	}
	return metrics.TrimmedMean(xs), nil
}

// laserSAV is the paper's default sample-after value.
const laserSAV = 19
