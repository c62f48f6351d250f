package experiments

import (
	"reflect"
	"testing"
)

// The registry's static shape: specs and artifacts unique, every spec
// complete.
func TestRegistryShape(t *testing.T) {
	names := map[string]bool{}
	arts := map[string]bool{}
	for _, spec := range Specs() {
		if names[spec.Name] {
			t.Errorf("duplicate spec %q", spec.Name)
		}
		names[spec.Name] = true
		if len(spec.Artifacts) == 0 {
			t.Errorf("%s: no artifacts", spec.Name)
		}
		for _, a := range spec.Artifacts {
			if arts[a] {
				t.Errorf("artifact %q registered twice", a)
			}
			arts[a] = true
		}
		if spec.Assemble == nil {
			t.Errorf("%s: no Assemble", spec.Name)
		}
	}
	for _, want := range []string{"fig3", "accuracy", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		if !names[want] {
			t.Errorf("spec %q missing from the registry", want)
		}
	}
}

// smallConfig keeps the full-registry tests to a few seconds while
// still running every simulated tool flavor.
func smallConfig() Config {
	return Config{AccuracyScale: 2, PerfScale: 0.3, Runs: 1}
}

// One pass over the whole registry: every spec renders its registered
// artifacts in order, nothing fails, and the specs' simulated counts
// add up to every simulation the memo ran during the pass (earlier
// tests may have computed some of its keys already).
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry evaluation; skipped in the reduced-scale race run")
	}
	before := runMemo.computeCount()
	results := Run(smallConfig(), func(string) bool { return true }, RunOptions{})
	if len(results) != len(Specs()) {
		t.Fatalf("assembled %d specs, want %d", len(results), len(Specs()))
	}
	simulated := 0
	for i, res := range results {
		if res.Spec != Specs()[i] {
			t.Errorf("result %d is %s, want registry order", i, res.Spec.Name)
		}
		if res.Err != nil {
			t.Errorf("%s failed: %v", res.Spec.Name, res.Err)
			continue
		}
		var names []string
		for _, a := range res.Rendered.Artifacts {
			names = append(names, a.Name)
			if a.Text == "" {
				t.Errorf("%s: artifact %s is empty", res.Spec.Name, a.Name)
			}
		}
		if !reflect.DeepEqual(names, res.Spec.Artifacts) {
			t.Errorf("%s rendered artifacts %v, registered %v", res.Spec.Name, names, res.Spec.Artifacts)
		}
		simulated += res.Simulated
	}
	if computes := runMemo.computeCount() - before; computes != simulated {
		t.Errorf("the memo ran %d simulations, the specs counted %d", computes, simulated)
	}
}

// Cross-experiment dedup: a simulation two specs share is computed
// once, so fig12 simulates less after fig11 than it does alone, and the
// per-spec counts add up to the memo's computes.
func TestExecutorCrossSpecDedup(t *testing.T) {
	cfg := smallConfig()
	isolateMemo(t)
	alone := Run(cfg, func(e string) bool { return e == "fig12" }, RunOptions{})
	if len(alone) != 1 || alone[0].Err != nil {
		t.Fatalf("fig12 alone: %+v", alone)
	}

	isolateMemo(t)
	results := Run(cfg, func(e string) bool { return e == "fig11" || e == "fig12" }, RunOptions{})
	if len(results) != 2 {
		t.Fatalf("assembled %d specs, want fig11+fig12", len(results))
	}
	fig11, fig12 := results[0], results[1]
	if fig11.Spec.Name != "fig11" || fig12.Spec.Name != "fig12" {
		t.Fatalf("registry order broken: %s, %s", fig11.Spec.Name, fig12.Spec.Name)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s failed: %v", res.Spec.Name, res.Err)
		}
	}
	// fig12 re-reads natives fig11 already computed (dedup,
	// linear_regression, ...).
	if fig12.Simulated >= alone[0].Simulated {
		t.Errorf("fig12 simulated %d after fig11, %d alone: no cross-spec dedup",
			fig12.Simulated, alone[0].Simulated)
	}
	if computes := runMemo.computeCount(); computes != fig11.Simulated+fig12.Simulated {
		t.Errorf("per-spec counts (%d+%d) disagree with the memo (%d computes)",
			fig11.Simulated, fig12.Simulated, computes)
	}
	if !reflect.DeepEqual(fig12.Rendered, alone[0].Rendered) {
		t.Error("fig12 renders differently after fig11 than alone")
	}
}
