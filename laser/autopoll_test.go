package laser

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestAutoPollIntervalMath(t *testing.T) {
	const base = 2_000_000
	for _, tc := range []struct {
		scale float64
		want  uint64
	}{
		{1, base},   // full fidelity: exactly the paper's cadence
		{2.5, base}, // scaling up never shortens the cadence
		{0.5, base / 2},
		{0.3, 600_000},
		{1e-9, 1}, // floor: the cadence never collapses to zero
	} {
		if got := AutoPollInterval(base, tc.scale); got != tc.want {
			t.Errorf("AutoPollInterval(%d, %g) = %d, want %d", base, tc.scale, got, tc.want)
		}
	}
}

func TestAutoTrialBudgetMath(t *testing.T) {
	const base = 2_000_000
	for _, tc := range []struct {
		scale float64
		want  uint64
	}{
		{1, 8_000_000},   // full fidelity: the historical 4× poll interval
		{2.5, 8_000_000}, // scaling up never stretches the cadence or the budget
		{0.5, 4_000_000}, // proportional band: budget follows the cadence
		{0.2, 1_600_000},
		{0.05, 400_000}, // exactly the floor
		{0.01, 400_000}, // below: a trial still outlives two quanta
		{1e-9, 400_000},
	} {
		if got := AutoTrialBudget(base, tc.scale); got != tc.want {
			t.Errorf("AutoTrialBudget(%d, %g) = %d, want %d", base, tc.scale, got, tc.want)
		}
	}
	// A slow cadence is capped instead of burning 4× its full period.
	if got := AutoTrialBudget(8_000_000, 1); got != maxTrialBudget {
		t.Errorf("AutoTrialBudget(8M, 1) = %d, want cap %d", got, maxTrialBudget)
	}
	// Composition: deriving from an already-resolved cadence at scale 1
	// equals deriving from the base cadence at the original scale.
	for _, scale := range []float64{1e-9, 0.01, 0.2, 0.5, 1, 3} {
		resolved := AutoPollInterval(base, scale)
		if a, b := AutoTrialBudget(resolved, 1), AutoTrialBudget(base, scale); a != b {
			t.Errorf("scale %g: AutoTrialBudget(resolved, 1) = %d != AutoTrialBudget(base, scale) = %d", scale, a, b)
		}
	}
}

// The option path: an auto-derived cadence lands in the session config,
// scaled from the configured base.
func TestWithAutoPollIntervalResolution(t *testing.T) {
	st := settings{cfg: DefaultConfig()}
	if err := WithAutoPollInterval(0.25)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if want := DefaultConfig().PollInterval / 4; st.cfg.PollInterval != want {
		t.Errorf("resolved PollInterval = %d, want %d", st.cfg.PollInterval, want)
	}

	// An explicit WithPollInterval is used verbatim...
	st = settings{cfg: DefaultConfig()}
	if err := WithPollInterval(123_456)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 123_456 {
		t.Errorf("explicit PollInterval rewritten to %d", st.cfg.PollInterval)
	}

	// ...and combining the two is a configuration error, not a silent
	// precedence rule.
	st = settings{cfg: DefaultConfig()}
	if err := WithPollInterval(123_456)(&st); err != nil {
		t.Fatal(err)
	}
	if err := WithAutoPollInterval(0.5)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err == nil ||
		!strings.Contains(err.Error(), "WithAutoPollInterval") {
		t.Errorf("conflicting poll options resolved without error (err %v)", err)
	}
}

func TestWithAutoPollIntervalValidation(t *testing.T) {
	w, _ := workload.Get("blackscholes")
	img := w.Build(workload.Options{Scale: 0.1})
	for _, bad := range []float64{0, -1} {
		if _, err := Attach(img, WithAutoPollInterval(bad)); err == nil {
			t.Errorf("WithAutoPollInterval(%g) accepted", bad)
		}
	}
	s, err := Attach(img, WithAutoPollInterval(0.1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want := AutoPollInterval(DefaultConfig().PollInterval, 0.1); s.cfg.PollInterval != want {
		t.Errorf("attached session polls every %d cycles, want %d", s.cfg.PollInterval, want)
	}
}

// A bounded session (MaxCycles below the default cadence) with no
// explicit poll configuration derives its cadence from the run budget,
// so it still reaches §4.4 trigger checks before the cap.
func TestBoundedRunDefaultPollInterval(t *testing.T) {
	st := settings{cfg: DefaultConfig()}
	st.cfg.MaxCycles = 100_000
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 25_000 {
		t.Errorf("bounded-run PollInterval = %d, want 25000", st.cfg.PollInterval)
	}

	// A budget above the cadence changes nothing.
	st = settings{cfg: DefaultConfig()}
	st.cfg.MaxCycles = 10_000_000
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != DefaultConfig().PollInterval {
		t.Errorf("long bounded run rewrote PollInterval to %d", st.cfg.PollInterval)
	}

	// An explicit cadence wins over the bounded-run default.
	st = settings{cfg: DefaultConfig()}
	st.cfg.MaxCycles = 100_000
	if err := WithPollInterval(2_000_000)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 2_000_000 {
		t.Errorf("explicit cadence rewritten to %d", st.cfg.PollInterval)
	}

	// So does a cadence carried in by WithConfig: that caller chose a
	// capped run with its own (possibly never-firing) poll interval.
	st = settings{}
	cfg := DefaultConfig()
	cfg.PollInterval = 5_000_000
	cfg.MaxCycles = 1_000_000
	if err := WithConfig(cfg)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 5_000_000 {
		t.Errorf("WithConfig cadence rewritten to %d", st.cfg.PollInterval)
	}

	// A WithConfig with no cadence (zero PollInterval) stays eligible
	// for the bounded-run derivation.
	st = settings{}
	cfg = DefaultConfig()
	cfg.PollInterval = 0
	cfg.MaxCycles = 100_000
	if err := WithConfig(cfg)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 25_000 {
		t.Errorf("config-without-cadence bounded run polls every %d, want 25000", st.cfg.PollInterval)
	}
}

// WithAutoPollInterval scales WithConfig's base cadence — the
// documented composition — while still conflicting with an explicit
// WithPollInterval.
func TestWithAutoPollIntervalScalesConfigBase(t *testing.T) {
	st := settings{}
	cfg := DefaultConfig()
	cfg.PollInterval = 1_000_000
	if err := WithConfig(cfg)(&st); err != nil {
		t.Fatal(err)
	}
	if err := WithAutoPollInterval(0.5)(&st); err != nil {
		t.Fatal(err)
	}
	if err := resolvePollInterval(&st); err != nil {
		t.Fatal(err)
	}
	if st.cfg.PollInterval != 500_000 {
		t.Errorf("auto cadence over a config base = %d, want 500000", st.cfg.PollInterval)
	}
}
