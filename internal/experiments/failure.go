package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// This file is the executor's failure accounting: what happened to every
// work unit that did not succeed on its first attempt. A unit that
// exhausts its retry budget is quarantined — its spec assembles marker
// rows instead of real artifacts, siblings keep running — and the whole
// run's outcome is summarized in a FailureSummary that laserbench prints
// and embeds in the BENCH json next to its non-zero exit.

// Fault kinds, the per-attempt classification recorded in UnitFailure
// and UnitRetry. Injected faults additionally carry their injection
// point ("injected:unit.panic").
const (
	// FaultPanic: the attempt panicked (recovered by the executor).
	FaultPanic = "panic"
	// FaultTimeout: the attempt outlived its per-unit deadline (an
	// injected stall the deadline preempted lands here; one the deadline
	// missed stays "injected:unit.stall").
	FaultTimeout = "timeout"
	// FaultError: a plain failing attempt.
	FaultError = "error"
)

// classifyFault names one failed attempt's fault kind.
func classifyFault(err error) string {
	var inj *faultinject.InjectedError
	if errors.As(err, &inj) {
		return "injected:" + inj.Point
	}
	var pe *unitPanicError
	if errors.As(err, &pe) {
		return FaultPanic
	}
	var te *unitTimeoutError
	if errors.As(err, &te) {
		return FaultTimeout
	}
	return FaultError
}

// unitPanicError wraps a panic recovered inside a work-unit attempt.
type unitPanicError struct {
	val   any
	stack []byte
}

func (e *unitPanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.val)
}

// unitTimeoutError reports an attempt preempted by its deadline. The
// attempt's goroutine keeps running until the simulation's own bounds
// stop it; the executor just stops waiting.
type unitTimeoutError struct {
	label    string
	deadline time.Duration
}

func (e *unitTimeoutError) Error() string {
	return fmt.Sprintf("deadline exceeded (%s)", e.deadline)
}

// UnitFailure is one quarantined work unit: every attempt failed.
type UnitFailure struct {
	// Spec is the experiment that first ran the unit.
	Spec string `json:"spec"`
	// Label is the unit's human-readable identity (also the fault plan's
	// match key at the unit.* injection points).
	Label string `json:"label"`
	// Key is the unit's cache-key ID.
	Key string `json:"key"`
	// Attempts is how many times the unit was tried.
	Attempts int `json:"attempts"`
	// Kinds classifies each failed attempt, in attempt order.
	Kinds []string `json:"kinds"`
	// Reason is the final attempt's error.
	Reason string `json:"reason"`
}

// Marker renders the failure's artifact marker row.
func (f UnitFailure) Marker() string {
	return fmt.Sprintf("unit failed (%d attempts): %s: %s", f.Attempts, f.Label, f.Reason)
}

// UnitRetry is one work unit that failed at least once but succeeded
// within its retry budget — the transient-fault record.
type UnitRetry struct {
	Spec  string `json:"spec"`
	Label string `json:"label"`
	// Attempts is the attempt that succeeded (total tries).
	Attempts int `json:"attempts"`
	// Kinds classifies the failed attempts, in attempt order.
	Kinds []string `json:"kinds"`
}

// FailureSummary is the structured outcome of an executor run: which
// units were quarantined (with per-attempt fault kinds) and which
// recovered after retries. A run with an empty Quarantined list produced
// byte-identical artifacts to a fault-free run.
type FailureSummary struct {
	Quarantined []UnitFailure `json:"quarantined,omitempty"`
	Recovered   []UnitRetry   `json:"recovered,omitempty"`
}

// Failed reports whether any unit (or assembly) was quarantined — the
// condition under which laserbench exits non-zero.
func (s *FailureSummary) Failed() bool { return s != nil && len(s.Quarantined) > 0 }

// Empty reports a fault-free run: nothing quarantined, nothing retried.
func (s *FailureSummary) Empty() bool {
	return s == nil || (len(s.Quarantined) == 0 && len(s.Recovered) == 0)
}

// QuarantinedKeys lists the cache-key IDs of every quarantined unit, in
// quarantine order.
func (s *FailureSummary) QuarantinedKeys() []string {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.Quarantined))
	for _, f := range s.Quarantined {
		keys = append(keys, f.Key)
	}
	return keys
}

// String renders the one-line failure summary laserbench prints on
// stderr next to its exit status.
func (s *FailureSummary) String() string {
	if s.Empty() {
		return "no unit failures"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d unit(s) quarantined, %d recovered after retries", len(s.Quarantined), len(s.Recovered))
	if len(s.Quarantined) > 0 {
		kinds := make(map[string]int)
		specs := make(map[string]bool)
		var specList []string
		for _, f := range s.Quarantined {
			if !specs[f.Spec] {
				specs[f.Spec] = true
				specList = append(specList, f.Spec)
			}
			for _, k := range f.Kinds {
				kinds[k]++
			}
		}
		var kindList []string
		for _, f := range s.Quarantined {
			for _, k := range f.Kinds {
				if n, ok := kinds[k]; ok {
					kindList = append(kindList, fmt.Sprintf("%s×%d", k, n))
					delete(kinds, k)
				}
			}
		}
		fmt.Fprintf(&b, "; specs affected: %s; faults: %s",
			strings.Join(specList, ","), strings.Join(kindList, ","))
	}
	return b.String()
}

// quarantineRendered synthesizes a spec's artifacts when any of its
// units are quarantined: one marker block per registered artifact name,
// with an explicit "unit failed (N attempts): reason" row per failure,
// instead of calling Assemble — which would silently re-simulate the
// quarantined keys outside the retry budget (Assemble computes cache
// misses itself when asked directly).
func quarantineRendered(spec *Spec, fails []UnitFailure) *Rendered {
	var b strings.Builder
	for _, f := range fails {
		b.WriteString(f.Marker())
		b.WriteByte('\n')
	}
	body := b.String()
	r := &Rendered{}
	for _, name := range spec.Artifacts {
		r.Artifacts = append(r.Artifacts, Artifact{
			Name: name,
			Text: fmt.Sprintf("== %s: QUARANTINED (%d failed unit(s)) ==\n%s", name, len(fails), body),
		})
	}
	return r
}
