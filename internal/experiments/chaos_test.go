package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// The chaos acceptance tests: a simulation that fails — an injected
// error, a stall past the deadline — fails every spec that reads it,
// each rendering QUARANTINED markers, while sibling specs render
// exactly as in a fault-free run.

// enableFaults installs a plan for the test's duration.
func enableFaults(t *testing.T, spec string) {
	t.Helper()
	plan, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	t.Cleanup(func() { faultinject.Enable(nil) })
}

// renderAll flattens a run's artifacts into one comparable string.
func renderAll(results []SpecResult) string {
	var b strings.Builder
	for _, res := range results {
		for _, a := range res.Rendered.Artifacts {
			b.WriteString(a.Text)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// A permanent fault fails its spec, which renders an explicit marker
// naming the failed simulation; the sibling spec renders byte-identical
// to a fault-free run.
func TestRunPermanentFaultQuarantines(t *testing.T) {
	cfg := smallConfig()
	want := func(e string) bool { return e == "fig3" || e == "fig13" }
	clean := Run(cfg, want, RunOptions{})

	isolateMemo(t)
	// Permanently fail fig13's laser SAV sweep; fig3 (characterization
	// cases only) is untouched.
	enableFaults(t, "seed=1;unit.err:p=1,match=laser/dedup@")
	results := Run(cfg, want, RunOptions{})
	if len(results) != 2 {
		t.Fatalf("got %d specs, want fig3+fig13", len(results))
	}
	fig3, fig13 := results[0], results[1]
	if fig3.Err != nil || renderAll(results[:1]) != renderAll(clean[:1]) {
		t.Errorf("fig3 was dragged down by fig13's failure (err %v):\n%s", fig3.Err, renderAll(results[:1]))
	}
	var inj *faultinject.InjectedError
	if !errors.As(fig13.Err, &inj) || inj.Point != faultinject.PointUnitErr {
		t.Fatalf("fig13 error %v, want the injected unit.err", fig13.Err)
	}
	txt := renderAll(results[1:])
	for _, s := range []string{"== fig13: QUARANTINED ==", "experiment fig13 failed:", "unit.err fired for laser/dedup@0.3/"} {
		if !strings.Contains(txt, s) {
			t.Errorf("fig13 marker artifact lacks %q:\n%s", s, txt)
		}
	}
}

// A stalled simulation is cut off by the deadline: its spec fails with
// a timeout without waiting out the stall, and the sibling spec renders
// normally.
func TestRunDeadlinePreemptsStall(t *testing.T) {
	isolateMemo(t)
	cfg := smallConfig()
	want := func(e string) bool { return e == "fig3" || e == "fig13" }

	// One characterization case stalls 30s; the shrunk deadline cuts it
	// off in 250ms. The deadline applies to every simulation, so it must
	// stay well above a healthy characterization case's wall time under
	// -race.
	enableFaults(t, "seed=2;unit.stall:p=1,delay=30s,match=char/FSRW/0")
	start := time.Now()
	results := Run(cfg, want, RunOptions{Deadline: 250 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("deadline did not preempt the stall (run took %s)", elapsed)
	}
	fig3, fig13 := results[0], results[1]
	if fig3.Err == nil || !strings.Contains(fig3.Err.Error(), "char/FSRW/0/") ||
		!strings.Contains(fig3.Err.Error(), "deadline exceeded (250ms)") {
		t.Fatalf("fig3 error %v, want char/FSRW/0's deadline", fig3.Err)
	}
	if !strings.Contains(renderAll(results[:1]), "== fig3: QUARANTINED ==") {
		t.Errorf("fig3 rendered no marker:\n%s", renderAll(results[:1]))
	}
	if fig13.Err != nil {
		t.Errorf("fig13 failed: %v", fig13.Err)
	}
}

// A failed simulation stays failed for the rest of the process: a later
// spec reading the key fails with the very same error, without
// simulating it again.
func TestQuarantinePoisonsLaterSpecs(t *testing.T) {
	isolateMemo(t)
	cfg := smallConfig()
	// fig11 and fig12 both read dedup's native baseline.
	want := func(e string) bool { return e == "fig11" || e == "fig12" }

	enableFaults(t, "seed=4;unit.err:p=1,match=native/dedup@")
	results := Run(cfg, want, RunOptions{})
	if len(results) != 2 {
		t.Fatalf("got %d specs", len(results))
	}
	fig11, fig12 := results[0], results[1]
	var first, later *faultinject.InjectedError
	if !errors.As(fig11.Err, &first) || !errors.As(fig12.Err, &later) {
		t.Fatalf("shared failed key must fail both specs: fig11 %v, fig12 %v", fig11.Err, fig12.Err)
	}
	// One flight, one error value: a re-simulation would have injected
	// a fresh one.
	if first != later {
		t.Errorf("fig12 re-simulated the failed key: %v vs %v", first, later)
	}
	if computes := runMemo.computeCount(); computes != fig11.Simulated+fig12.Simulated {
		t.Errorf("per-spec counts (%d+%d) disagree with the memo (%d computes)",
			fig11.Simulated, fig12.Simulated, computes)
	}
}

// A renderer that panics inside a pool task degrades its spec to a
// quarantine marker at any parallelism, instead of killing the process
// from a pool goroutine.
func TestPanickingRendererQuarantines(t *testing.T) {
	saved := allSpecs
	t.Cleanup(func() { allSpecs = saved })
	allSpecs = []*Spec{{
		Name:      "broken",
		Artifacts: []string{"broken"},
		Assemble: func(Config) (*Rendered, error) {
			var rows []int
			err := forEach(4, func(i int) error {
				rows[i] = i // index out of range
				return nil
			})
			return &Rendered{}, err
		},
	}}
	for _, par := range []string{"1", "4"} {
		t.Setenv("LASER_BENCH_PARALLEL", par)
		results := Run(QuickConfig(), func(string) bool { return true }, RunOptions{})
		var pe *panicError
		if len(results) != 1 || !errors.As(results[0].Err, &pe) || len(pe.stack) == 0 {
			t.Fatalf("parallelism %s: got %+v, want a recovered panic with its stack", par, results)
		}
		if txt := renderAll(results); !strings.Contains(txt, "== broken: QUARANTINED ==") ||
			!strings.Contains(txt, "task 0: panic: runtime error: index out of range") {
			t.Errorf("parallelism %s: marker %q", par, txt)
		}
	}
}
