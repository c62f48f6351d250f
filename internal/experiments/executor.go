package experiments

import (
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"repro/internal/faultinject"
)

// The executor owns the evaluation's run loop: it walks the registry in
// print order, executes every selected spec's work units on the
// inter-run worker pool, deduplicates units across experiments by key,
// accounts per-unit memo hits versus simulations, and assembles each
// spec's artifacts only after its units are in the run memo.
//
// Execution is chaos-hardened: every work unit runs under recover()
// with a flat per-attempt deadline and a bounded exponential-backoff
// retry. A unit that exhausts its budget is quarantined — its spec
// renders explicit marker rows instead of real artifacts, sibling units
// and sibling specs keep running — and the run's FailureSummary records
// every quarantined and retried unit.

// SpecResult is one executed experiment: its rendered artifacts plus
// the executor's accounting.
type SpecResult struct {
	Spec     *Spec
	Rendered *Rendered
	// Units is how many work units the spec enumerated. Simulated of
	// them were computed during this spec's phase; CacheHits were
	// already in the run memo — computed by an earlier spec's phase
	// (cross-experiment dedup) or by an earlier call in this process.
	Units, Simulated, CacheHits int
	// FailedUnits counts units quarantined after exhausting their retry
	// budget, including units an earlier spec already quarantined
	// (cross-experiment dedup also dedupes failures: a poisoned key is
	// never re-retried). Non-zero means Rendered holds quarantine
	// markers, not real artifacts.
	FailedUnits int
	// Failures are this spec's quarantined units (and its assembly
	// failure, labelled "<assemble>", if any), in unit order.
	Failures []UnitFailure
	// WallSeconds is the phase's wall time, execution plus assembly.
	WallSeconds float64
}

// Failed reports whether the spec rendered quarantine markers instead
// of real artifacts.
func (r *SpecResult) Failed() bool { return len(r.Failures) > 0 }

// Retry-policy defaults; RunOptions overrides each.
const (
	// defaultMaxAttempts bounds tries per failing work unit.
	defaultMaxAttempts = 3
	// defaultDeadline is the per-attempt deadline of every unit: the
	// slowest unit of a paper-scale evaluation takes about 2 s on a
	// 2-core host, so 30 s calls a unit stalled only with an order of
	// magnitude of slack.
	defaultDeadline = 30 * time.Second
	// defaultBackoffBase is the delay before the first retry; it
	// doubles per subsequent attempt.
	defaultBackoffBase = 100 * time.Millisecond
)

// RunOptions tunes an executor run.
type RunOptions struct {
	// Progress receives one line per completed spec (nil = silent).
	Progress io.Writer
	// OnSpec, when non-nil, is called with each spec's result as soon
	// as it assembles — laserbench streams rendered figures through it,
	// so a failure (or an impatient reader) late in a long evaluation
	// does not discard everything already rendered.
	OnSpec func(SpecResult)
	// MaxAttempts bounds how many times a failing work unit is tried
	// before quarantine (0 = defaultMaxAttempts).
	MaxAttempts int
	// Deadline bounds each attempt of a work unit
	// (0 = defaultDeadline).
	Deadline time.Duration
	// BackoffBase is the delay before the first retry, doubling per
	// attempt (0 = defaultBackoffBase).
	BackoffBase time.Duration
}

// runPolicy is RunOptions' retry policy with defaults applied.
type runPolicy struct {
	maxAttempts int
	deadline    time.Duration
	backoffBase time.Duration
}

func (o RunOptions) policy() runPolicy {
	p := runPolicy{
		maxAttempts: o.MaxAttempts,
		deadline:    o.Deadline,
		backoffBase: o.BackoffBase,
	}
	if p.maxAttempts <= 0 {
		p.maxAttempts = defaultMaxAttempts
	}
	if p.deadline <= 0 {
		p.deadline = defaultDeadline
	}
	if p.backoffBase <= 0 {
		p.backoffBase = defaultBackoffBase
	}
	return p
}

// executor carries one run's chaos-hardening state across specs: the
// retry policy, the quarantine (shared across specs — a key one spec
// exhausted is never re-retried by a later spec enumerating it), and
// the run's failure summary. Work units execute concurrently, but all
// quarantine/summary state is folded by the serial spec loop in unit
// order, so the summary is deterministic at any parallelism.
type executor struct {
	pol         runPolicy
	quarantined map[Key]*UnitFailure
	summary     FailureSummary
}

func newExecutor(pol runPolicy) *executor {
	return &executor{pol: pol, quarantined: make(map[Key]*UnitFailure)}
}

// runAttempt executes one attempt of a unit under recover() and the
// deadline. The attempt body runs on its own goroutine so the deadline
// can preempt it; a preempted attempt's goroutine keeps running until
// the simulation's own bounds (machine cycle caps) stop it — the
// buffered channel lets it finish and exit without a receiver.
//
// The unit.* injection points fire here, keyed by the unit's label: a
// panic at the start of the attempt, an injected error, or a stall.
// The stall consumes the whole attempt (it never proceeds to run the
// unit): the run memo's single flight would otherwise pin later
// attempts behind the stalled computation. computed reports whether
// the attempt simulated the unit.
func (x *executor) runAttempt(u WorkUnit, attempt int) (bool, error) {
	// computed is read only after done delivers, which orders the
	// goroutine's write before the read; a preempted attempt's late
	// write has no reader.
	var computed bool
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- &unitPanicError{val: r, stack: debug.Stack()}
			}
		}()
		faultinject.Panic(faultinject.PointUnitPanic, u.Label, attempt)
		if err := faultinject.Error(faultinject.PointUnitErr, u.Label, attempt); err != nil {
			done <- err
			return
		}
		if err := faultinject.Stall(faultinject.PointUnitStall, u.Label, attempt); err != nil {
			done <- err
			return
		}
		var err error
		computed, err = u.Run()
		done <- err
	}()
	timer := time.NewTimer(x.pol.deadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return computed, err
	case <-timer.C:
		return false, &unitTimeoutError{label: u.Label, deadline: x.pol.deadline}
	}
}

// runUnit drives one unit through the retry budget. It returns the
// unit's failure when every attempt failed (the unit is then
// quarantined by the caller) or the retry record when it succeeded
// after failed attempts; neither is a clean first-attempt success. The
// bool reports whether the successful attempt simulated the unit.
// runUnit touches no executor state — it runs concurrently on the
// worker pool and the serial spec loop folds its results in unit order.
func (x *executor) runUnit(spec string, u WorkUnit) (*UnitFailure, *UnitRetry, bool) {
	var kinds []string
	var lastErr error
	for attempt := 1; attempt <= x.pol.maxAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(x.pol.backoffBase << (attempt - 2))
		}
		computed, err := x.runAttempt(u, attempt)
		if err == nil {
			if len(kinds) == 0 {
				return nil, nil, computed
			}
			return nil, &UnitRetry{Spec: spec, Label: u.Label, Attempts: attempt, Kinds: kinds}, computed
		}
		kinds = append(kinds, classifyFault(err))
		lastErr = err
	}
	return &UnitFailure{
		Spec:     spec,
		Label:    u.Label,
		Key:      u.Key.String(),
		Attempts: x.pol.maxAttempts,
		Kinds:    kinds,
		Reason:   lastErr.Error(),
	}, nil, false
}

// fold records a phase's per-unit outcomes into the quarantine and the
// summary, in unit order — called from the serial spec loop only.
func (x *executor) fold(phase []WorkUnit, fails []*UnitFailure, retries []*UnitRetry) {
	for i, f := range fails {
		if f == nil {
			continue
		}
		if _, dup := x.quarantined[phase[i].Key]; dup {
			continue
		}
		x.quarantined[phase[i].Key] = f
		x.summary.Quarantined = append(x.summary.Quarantined, *f)
	}
	for _, r := range retries {
		if r != nil {
			x.summary.Recovered = append(x.summary.Recovered, *r)
		}
	}
}

// assemble runs a spec's Assemble under recover(), so a panicking
// renderer degrades to a spec failure instead of tearing the run down.
func assemble(spec *Spec, cfg Config) (r *Rendered, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, &unitPanicError{val: rec, stack: debug.Stack()}
		}
	}()
	return spec.Assemble(cfg)
}

// selected reports whether want picks the spec, by its name or any of
// its artifacts.
func selected(s *Spec, want func(string) bool) bool {
	if want(s.Name) {
		return true
	}
	for _, a := range s.Artifacts {
		if want(a) {
			return true
		}
	}
	return false
}

// Run executes the selected experiments end to end and returns their
// results in registry (print) order, plus the run's failure summary.
//
// Failing units no longer abort the run: each is retried under the
// options' policy, and a unit that exhausts its budget is quarantined —
// sibling units and later specs keep executing, the owning spec renders
// explicit "unit failed (N attempts)" marker artifacts instead of
// calling Assemble (which would silently re-simulate the poisoned keys),
// and the summary reports every quarantined key. Callers decide the
// process outcome from summary.Failed(); the error return is reserved
// for infrastructure failures, not unit failures.
func Run(cfg Config, want func(exp string) bool, opt RunOptions) ([]SpecResult, *FailureSummary, error) {
	x := newExecutor(opt.policy())
	executed := make(map[Key]bool)
	var out []SpecResult
	for _, spec := range Specs() {
		if !selected(spec, want) {
			continue
		}
		start := time.Now()
		units := spec.Enumerate(cfg)
		var phase []WorkUnit
		for _, u := range units {
			// Keys an earlier spec quarantined are poisoned, not re-tried:
			// the retry budget is per key, not per (spec, key).
			if !executed[u.Key] && x.quarantined[u.Key] == nil {
				phase = append(phase, u)
			}
		}
		fails := make([]*UnitFailure, len(phase))
		retries := make([]*UnitRetry, len(phase))
		computed := make([]bool, len(phase))
		forEach(len(phase), func(i int) error {
			fails[i], retries[i], computed[i] = x.runUnit(spec.Name, phase[i])
			return nil
		})
		x.fold(phase, fails, retries)

		res := SpecResult{Spec: spec, Units: len(units)}
		for i := range phase {
			if computed[i] {
				res.Simulated++
			}
		}
		for _, u := range units {
			if f := x.quarantined[u.Key]; f != nil {
				// A failing simulation is not memoized, so a quarantined
				// unit is neither a hit nor a simulation.
				res.FailedUnits++
				res.Failures = append(res.Failures, *f)
				continue
			}
			executed[u.Key] = true
		}
		res.CacheHits = res.Units - res.FailedUnits - res.Simulated
		if res.FailedUnits > 0 {
			res.Rendered = quarantineRendered(spec, res.Failures)
		} else if rendered, err := assemble(spec, cfg); err != nil {
			f := UnitFailure{
				Spec:     spec.Name,
				Label:    spec.Name + "/<assemble>",
				Key:      spec.Name + "/<assemble>",
				Attempts: 1,
				Kinds:    []string{classifyFault(err)},
				Reason:   err.Error(),
			}
			x.summary.Quarantined = append(x.summary.Quarantined, f)
			res.Failures = append(res.Failures, f)
			res.Rendered = quarantineRendered(spec, res.Failures)
		} else {
			res.Rendered = rendered
		}
		res.WallSeconds = time.Since(start).Seconds()
		if opt.Progress != nil {
			failNote := ""
			if res.Failed() {
				failNote = fmt.Sprintf(", %d QUARANTINED", len(res.Failures))
			}
			fmt.Fprintf(opt.Progress, "%s: %d work units (%d simulated, %d cached%s) in %.1fs\n",
				spec.Name, res.Units, res.Simulated, res.CacheHits, failNote, res.WallSeconds)
		}
		if opt.OnSpec != nil {
			opt.OnSpec(res)
		}
		out = append(out, res)
	}
	return out, &x.summary, nil
}
