package laser

import "fmt"

// settings is everything Attach needs: the component configuration plus
// session-only knobs that have no Config field.
type settings struct {
	cfg Config
	// monitorAfterRepair keeps feeding the detector after a repair in
	// the final epoch (remapped to original PCs). Off, a session freezes
	// monitoring at the first repair, as the paper's one-shot exit report
	// does; the evaluation harness runs that way.
	monitorAfterRepair bool
	observers          []func(Event)
	// pollSource records where the cadence came from, which decides what
	// Attach may derive on top of it (see resolvePollInterval).
	pollSource pollSource
	// autoPollScale > 0 asks Attach to derive the cadence from the
	// workload scale (WithAutoPollInterval).
	autoPollScale float64
}

// pollSource says how the session's poll cadence was configured.
type pollSource uint8

const (
	// pollDefault: nobody chose a cadence; Attach may derive one for
	// bounded runs.
	pollDefault pollSource = iota
	// pollFromConfig: WithConfig carried a non-zero PollInterval — used
	// as given, and as the base for WithAutoPollInterval's scaling.
	pollFromConfig
	// pollExplicit: WithPollInterval named an exact cadence; nothing is
	// derived on top, and WithAutoPollInterval conflicts.
	pollExplicit
)

// Option customizes a Session at Attach time. Options validate their
// arguments: Attach reports the first invalid one instead of silently
// coercing it.
type Option func(*settings) error

// WithConfig replaces the whole component configuration, for callers
// that assemble a Config in bulk (the evaluation harness derives its
// run keys from one). Later options apply on top. A non-zero
// PollInterval is used as given (and as the base cadence for
// WithAutoPollInterval); a zero one takes the default cadence and
// remains eligible for Attach's bounded-run derivation. Every other
// field is used as given and validated: a zero Cores or PEBS.BufferCap
// is an error, not a default.
func WithConfig(cfg Config) Option {
	return func(s *settings) error {
		s.cfg = cfg
		if cfg.PollInterval != 0 {
			s.pollSource = pollFromConfig
		} else {
			s.pollSource = pollDefault
		}
		return nil
	}
}

// WithCores sets the simulated core count.
func WithCores(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("WithCores: core count must be positive, got %d", n)
		}
		s.cfg.Cores = n
		return nil
	}
}

// WithRepair enables or disables LASERREPAIR.
func WithRepair(enabled bool) Option {
	return func(s *settings) error {
		s.cfg.EnableRepair = enabled
		return nil
	}
}

// WithPollInterval sets the simulated-cycle slice between detector polls
// of the driver device. The value is used exactly as given: neither the
// scale-aware derivation (WithAutoPollInterval) nor the bounded-run
// default of Attach applies on top of it.
func WithPollInterval(cycles uint64) Option {
	return func(s *settings) error {
		if cycles == 0 {
			return fmt.Errorf("WithPollInterval: interval must be positive")
		}
		s.cfg.PollInterval = cycles
		s.pollSource = pollExplicit
		return nil
	}
}

// WithSAV sets the PEBS sample-after value on both the sampling hardware
// and the detector's rate scaling (the two must agree for event-rate
// estimates to be meaningful).
func WithSAV(sav int) Option {
	return func(s *settings) error {
		if sav <= 0 {
			return fmt.Errorf("WithSAV: sample-after value must be positive, got %d", sav)
		}
		s.cfg.PEBS.SAV = sav
		s.cfg.Detector.SAV = sav
		return nil
	}
}

// WithSeed seeds the PEBS imprecision model. Equal seeds (with equal
// images and options) produce identical runs, event for event.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.cfg.PEBS.Seed = seed
		return nil
	}
}

// WithRateThreshold sets the report rate threshold in HITM events per
// second. Zero reports every line; the paper settles on 1K.
func WithRateThreshold(hitmsPerSec float64) Option {
	return func(s *settings) error {
		if hitmsPerSec < 0 {
			return fmt.Errorf("WithRateThreshold: threshold must be non-negative, got %g", hitmsPerSec)
		}
		s.cfg.Detector.RateThreshold = hitmsPerSec
		return nil
	}
}

// WithRepairRateThreshold sets the false-sharing event rate above which
// LASERREPAIR is invoked (§4.4).
func WithRepairRateThreshold(fsPerSec float64) Option {
	return func(s *settings) error {
		if fsPerSec <= 0 {
			return fmt.Errorf("WithRepairRateThreshold: threshold must be positive, got %g", fsPerSec)
		}
		s.cfg.Detector.RepairRateThreshold = fsPerSec
		return nil
	}
}

// WithMaxCycles caps the simulated run.
func WithMaxCycles(n uint64) Option {
	return func(s *settings) error {
		s.cfg.MaxCycles = n
		return nil
	}
}

// WithIntraRunParallelism runs the simulated machine on up to n host
// worker threads: thread-private instruction stretches execute
// concurrently while every globally-visible event (coherence traffic,
// HITMs, SSB flushes, probe activity) retires serially in the exact
// serial-schedule order. Results — statistics, reports, the event stream
// — are byte-identical at any n; only wall-clock time changes. 1 (or 0)
// selects the serial engine.
func WithIntraRunParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("WithIntraRunParallelism: worker count must be non-negative, got %d", n)
		}
		s.cfg.IntraRunParallelism = n
		return nil
	}
}

// WithMaxEpochs bounds how many detect→repair epochs the session may run.
// 1 recovers the paper's one-shot behaviour (a single repair, then the
// pipeline keeps observing but never re-triggers); Attach's default is
// DefaultMaxEpochs.
func WithMaxEpochs(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("WithMaxEpochs: need at least one epoch, got %d", n)
		}
		s.cfg.MaxEpochs = n
		return nil
	}
}

// WithPostRepairMonitoring controls whether the detector keeps consuming
// records once the last permitted repair is installed. Sessions default
// to true: post-repair records are remapped to original PCs and keep the
// report live. With false, together with WithMaxEpochs(1), a session
// reproduces the paper's one-shot system and its frozen-at-repair exit
// report.
func WithPostRepairMonitoring(enabled bool) Option {
	return func(s *settings) error {
		s.monitorAfterRepair = enabled
		return nil
	}
}

// WithSpeculativeRepair enables racing repair candidates when the §4.4
// trigger first fires: the session forks itself from the trigger cut,
// measures every candidate in a bounded trial (one fork per distinct
// plan) against a no-op baseline, and
// applies the measured winner (emitting RepairTrialStarted /
// RepairTrialResult along the way) — or declines with measured numbers.
// Disabled, repair installs the default SSB rewrite directly; the off
// path costs nothing.
func WithSpeculativeRepair(enabled bool) Option {
	return func(s *settings) error {
		s.cfg.SpeculativeRepair = enabled
		return nil
	}
}

// WithTrialBudget sets the simulated-cycle budget each speculative
// repair trial may run before it is scored as incomplete. The default
// (zero) derives four poll intervals at trial time.
func WithTrialBudget(cycles uint64) Option {
	return func(s *settings) error {
		if cycles == 0 {
			return fmt.Errorf("WithTrialBudget: budget must be positive")
		}
		s.cfg.TrialBudget = cycles
		return nil
	}
}

// WithObserver registers a callback invoked synchronously for every
// session event, in emission order. Use Events for a channel instead.
func WithObserver(fn func(Event)) Option {
	return func(s *settings) error {
		if fn == nil {
			return fmt.Errorf("WithObserver: observer must not be nil")
		}
		s.observers = append(s.observers, fn)
		return nil
	}
}
