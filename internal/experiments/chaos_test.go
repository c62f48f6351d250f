package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// The executor's chaos acceptance tests: under a transient fault plan
// the evaluation retries its way to byte-identical artifacts; under a
// permanent plan the affected spec degrades to quarantine markers while
// siblings render normally.

// enableFaults installs a plan for the test's duration.
func enableFaults(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	plan, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	t.Cleanup(func() { faultinject.Enable(nil) })
	return plan
}

// chaosOpts keeps retries fast in tests.
func chaosOpts() RunOptions {
	return RunOptions{BackoffBase: time.Millisecond}
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

// Transient faults — injected errors and panics bounded to the first
// attempt — must be absorbed by the retry budget: same artifacts, byte
// for byte, as a fault-free run, with the retries on the record.
func TestRunTransientFaultsByteIdentical(t *testing.T) {
	resetCache()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()
	want := func(e string) bool { return e == "fig3" }

	clean, cleanSum, err := Run(cfg, want, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cleanSum.Empty() {
		t.Fatalf("clean run reported failures: %s", cleanSum)
	}

	resetCache()
	// Half the units fail their first attempt with an injected error, a
	// third panic on it; every fault is bounded to attempt 1, so the
	// retry heals everything.
	enableFaults(t, "seed=7;unit.err:p=0.5,attempts=1;unit.panic:p=0.3,attempts=1")
	chaos, sum, err := Run(cfg, want, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed() {
		t.Fatalf("transient faults quarantined units: %s", sum)
	}
	if len(sum.Recovered) == 0 {
		t.Fatal("fault plan injected nothing — the chaos run tested nothing")
	}
	if got, wantTxt := renderAll(chaos), renderAll(clean); got != wantTxt {
		t.Errorf("transient-fault artifacts differ from the clean run\nclean:\n%s\nchaos:\n%s", wantTxt, got)
	}
	for _, r := range sum.Recovered {
		if r.Attempts < 2 {
			t.Errorf("recovered unit %s reports %d attempts, want >= 2", r.Label, r.Attempts)
		}
		if len(r.Kinds) == 0 {
			t.Errorf("recovered unit %s carries no fault kinds", r.Label)
		}
	}
}

// A permanent fault exhausts the retry budget: the unit is quarantined,
// its spec renders explicit marker rows, sibling specs render normally,
// and the summary names the quarantined keys.
func TestRunPermanentFaultQuarantines(t *testing.T) {
	resetCache()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()
	want := func(e string) bool { return e == "fig3" || e == "fig13" }

	// Permanently fail fig13's laser SAV sweep; fig3 (characterization
	// units only) is untouched.
	enableFaults(t, "seed=1;unit.err:p=1,match=laser/dedup@")
	opts := chaosOpts()
	opts.MaxAttempts = 2
	results, sum, err := Run(cfg, want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Failed() {
		t.Fatal("permanent fault did not quarantine")
	}
	if len(results) != 2 {
		t.Fatalf("got %d specs, want fig3+fig13", len(results))
	}
	fig3, fig13 := results[0], results[1]
	if fig3.Failed() || strings.Contains(renderAll([]SpecResult{fig3}), "QUARANTINED") {
		t.Error("fig3 was dragged down by fig13's failure")
	}
	if !fig13.Failed() || fig13.FailedUnits == 0 {
		t.Fatalf("fig13 not marked failed: %+v", fig13)
	}
	txt := renderAll([]SpecResult{fig13})
	if !strings.Contains(txt, "QUARANTINED") || !strings.Contains(txt, "unit failed (2 attempts):") {
		t.Errorf("fig13 marker artifact missing the failure rows:\n%s", txt)
	}
	if len(sum.QuarantinedKeys()) != len(sum.Quarantined) || len(sum.Quarantined) == 0 {
		t.Errorf("quarantined keys incomplete: %v", sum.QuarantinedKeys())
	}
	for _, f := range sum.Quarantined {
		if f.Attempts != 2 || len(f.Kinds) != 2 {
			t.Errorf("quarantined unit %s: attempts %d kinds %v, want 2 attempts", f.Label, f.Attempts, f.Kinds)
		}
		for _, k := range f.Kinds {
			if k != "injected:unit.err" {
				t.Errorf("fault kind %q, want injected:unit.err", k)
			}
		}
	}
}

// A stalled unit is preempted by its deadline, retried, and
// recovers when the stall is bounded to the first attempt.
func TestRunDeadlinePreemptsStall(t *testing.T) {
	resetCache()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()
	want := func(e string) bool { return e == "fig3" }

	// One characterization unit stalls 30s on its first attempt; the
	// shrunk deadline preempts it in ~250ms and the retry passes. The
	// deadline applies to every unit, so it must stay well above a
	// healthy characterization case's wall time under -race.
	enableFaults(t, "seed=2;unit.stall:p=1,attempts=1,delay=30s,match=char/FSRW/0")
	opts := chaosOpts()
	opts.Deadline = 250 * time.Millisecond
	start := time.Now()
	_, sum, err := Run(cfg, want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("deadline did not preempt the stall (run took %s)", elapsed)
	}
	if sum.Failed() {
		t.Fatalf("stalled unit quarantined despite retry budget: %s", sum)
	}
	var hit *UnitRetry
	for i := range sum.Recovered {
		if strings.Contains(sum.Recovered[i].Label, "char/FSRW/0") {
			hit = &sum.Recovered[i]
		}
	}
	if hit == nil {
		t.Fatalf("stalled unit not in recovered list: %+v", sum.Recovered)
	}
	if len(hit.Kinds) == 0 || hit.Kinds[0] != FaultTimeout {
		t.Errorf("stall fault kinds = %v, want leading %q", hit.Kinds, FaultTimeout)
	}
}

// A later spec enumerating a key an earlier spec quarantined must not
// re-retry it: the poisoned key fails the later spec immediately, with
// the original failure's record.
func TestQuarantinePoisonsLaterSpecs(t *testing.T) {
	resetCache()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()
	// fig11 and fig12 share native baseline units (the cross-spec dedup
	// pair the cache tests use).
	want := func(e string) bool { return e == "fig11" || e == "fig12" }

	enableFaults(t, "seed=4;unit.err:p=1,match=native/dedup@")
	opts := chaosOpts()
	opts.MaxAttempts = 2
	results, sum, err := Run(cfg, want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d specs", len(results))
	}
	fig11, fig12 := results[0], results[1]
	if !fig11.Failed() || !fig12.Failed() {
		t.Fatalf("shared poisoned key must fail both specs: fig11 %v fig12 %v",
			fig11.Failed(), fig12.Failed())
	}
	// The key was retried by fig11 only; fig12 inherited the quarantine
	// record, so the summary holds exactly one entry per poisoned key.
	seen := map[string]int{}
	for _, f := range sum.Quarantined {
		seen[f.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %s quarantined %d times, want once", k, n)
		}
	}
	for _, f := range fig12.Failures {
		if f.Spec != "fig11" {
			t.Errorf("fig12's failure record should cite the original spec fig11, got %q", f.Spec)
		}
	}
}
