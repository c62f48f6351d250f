package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"
)

// Run is the evaluation's run loop: it walks the registry in print
// order and assembles every selected spec over the shared run memo,
// which deduplicates simulations across experiments and contains
// their failures (memo.go). A spec whose Assemble fails — a simulation
// it reads failed, stalled past the deadline or panicked, or the
// renderer itself panicked — renders QUARANTINED marker artifacts
// carrying the error; sibling specs render normally.

// SpecResult is one assembled experiment.
type SpecResult struct {
	Spec *Spec
	// Rendered holds the spec's artifacts — its QUARANTINED markers
	// when Err is set.
	Rendered *Rendered
	// Err is why Assemble failed, nil on success.
	Err error
	// Simulated is how many simulations the run memo computed while the
	// spec assembled; everything else it read an earlier spec (or an
	// earlier call in this process) had already computed.
	Simulated int
	// WallSeconds is the spec's assembly wall time.
	WallSeconds float64
}

// RunOptions tunes a Run.
type RunOptions struct {
	// Progress receives one line per assembled spec (nil = silent).
	Progress io.Writer
	// OnSpec, when non-nil, is called with each spec's result as soon
	// as it assembles — laserbench streams rendered figures through it,
	// so a failure (or an impatient reader) late in a long evaluation
	// does not discard everything already rendered.
	OnSpec func(SpecResult)
	// Deadline bounds every simulation the memo starts during the run
	// (0 = 30 s). Runners called outside Run simulate without one.
	Deadline time.Duration
}

// Run assembles the selected experiments in registry (print) order and
// returns their results.
func Run(cfg Config, want func(exp string) bool, opt RunOptions) []SpecResult {
	deadline := opt.Deadline
	if deadline <= 0 {
		deadline = defaultDeadline
	}
	defer runMemo.setDeadline(runMemo.setDeadline(deadline))
	var out []SpecResult
	for _, spec := range Specs() {
		if !selected(spec, want) {
			continue
		}
		start := time.Now()
		before := runMemo.computeCount()
		res := SpecResult{Spec: spec}
		res.Rendered, res.Err = assemble(spec, cfg)
		if res.Err != nil {
			res.Rendered = quarantined(spec, res.Err)
		}
		res.Simulated = runMemo.computeCount() - before
		res.WallSeconds = time.Since(start).Seconds()
		if opt.Progress != nil {
			note := ""
			if res.Err != nil {
				note = ", QUARANTINED"
			}
			fmt.Fprintf(opt.Progress, "%s: %d simulated%s in %.1fs\n", spec.Name, res.Simulated, note, res.WallSeconds)
			var pe *panicError
			if errors.As(res.Err, &pe) {
				fmt.Fprintf(opt.Progress, "%s\n%s", pe, pe.stack)
			}
		}
		if opt.OnSpec != nil {
			opt.OnSpec(res)
		}
		out = append(out, res)
	}
	return out
}

// assemble runs a spec's Assemble under recover(), so a panicking
// renderer degrades to a spec failure instead of tearing the run down.
func assemble(spec *Spec, cfg Config) (r *Rendered, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, &panicError{site: spec.Name, val: rec, stack: debug.Stack()}
		}
	}()
	return spec.Assemble(cfg)
}

// quarantined renders a failed spec's marker artifacts: one block per
// registered artifact name, carrying the error.
func quarantined(spec *Spec, err error) *Rendered {
	r := &Rendered{}
	for _, name := range spec.Artifacts {
		r.Artifacts = append(r.Artifacts, Artifact{
			Name: name,
			Text: fmt.Sprintf("== %s: QUARANTINED ==\nexperiment %s failed: %v\n", name, spec.Name, err),
		})
	}
	return r
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
