package experiments

import (
	"reflect"
	"testing"
)

// The registry's static shape: specs and artifacts unique, every spec
// enumerable into complete work units.
func TestRegistryShape(t *testing.T) {
	cfg := QuickConfig()
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
		units := spec.Enumerate(cfg)
		if len(units) == 0 {
			t.Errorf("%s: enumerates no work units", spec.Name)
		}
		for _, u := range units {
			if u.Run == nil || u.Label == "" {
				t.Errorf("%s: unit %s incomplete", spec.Name, u.Label)
			}
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

// The registry completeness contract: for every spec, Enumerate lists
// exactly the keys Assemble consumes. Each spec's direct (standalone)
// run is the reference: it must read exactly the enumerated keys, and
// the executor must produce byte-identical artifacts with per-spec
// accounting that adds up to every simulation the memo ran. In the
// executor, a spec whose Assemble reads a key no spec enumerated
// simulates it during assembly, outside every spec's Simulated count.
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("double full-registry evaluation; skipped in the reduced-scale race run")
	}
	cfg := smallConfig()
	t.Cleanup(resetRunMemo)

	// Direct references: each spec assembles standalone on a fresh
	// memo, simulating its own misses — the pre-registry runner
	// behaviour — and the memo then holds exactly the keys it read.
	direct := map[string]*Rendered{}
	for _, spec := range Specs() {
		resetRunMemo()
		r, err := spec.Assemble(cfg)
		if err != nil {
			t.Fatalf("%s: direct assemble: %v", spec.Name, err)
		}
		direct[spec.Name] = r
		enumerated := map[Key]bool{}
		for _, u := range spec.Enumerate(cfg) {
			enumerated[u.Key] = true
		}
		for k := range runMemo.flights {
			if !enumerated[k] {
				t.Errorf("%s: Assemble reads %s, which Enumerate omits", spec.Name, k)
			}
			delete(enumerated, k)
		}
		for k := range enumerated {
			t.Errorf("%s: Enumerate lists %s, which Assemble never reads", spec.Name, k)
		}
	}

	resetRunMemo()
	results, sum, err := Run(cfg, func(string) bool { return true }, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Empty() {
		t.Fatalf("run reported failures: %s", sum)
	}
	if len(results) != len(Specs()) {
		t.Fatalf("executed %d specs, want %d", len(results), len(Specs()))
	}
	simulated := 0
	for _, res := range results {
		want := direct[res.Spec.Name]
		if !reflect.DeepEqual(res.Rendered.Artifacts, want.Artifacts) {
			t.Errorf("%s artifacts differ from the direct run:\n%+v\nvs\n%+v",
				res.Spec.Name, res.Rendered.Artifacts, want.Artifacts)
		}
		if !reflect.DeepEqual(res.Rendered.Metrics, want.Metrics) {
			t.Errorf("%s metrics differ: %v vs %v", res.Spec.Name, res.Rendered.Metrics, want.Metrics)
		}
		if res.Units != res.Simulated+res.CacheHits {
			t.Errorf("%s accounting broken: %d units != %d simulated + %d hits",
				res.Spec.Name, res.Units, res.Simulated, res.CacheHits)
		}
		simulated += res.Simulated
	}
	// Nothing failed, so the memo holds one result per simulation.
	if computes := len(runMemo.flights); computes != simulated {
		t.Errorf("the memo ran %d simulations, the specs' units %d: an Assemble simulated a unit no spec enumerates",
			computes, simulated)
	}
}

// The executor's cross-experiment dedup: a unit two specs share is
// simulated once and reported as a hit by the later spec.
func TestExecutorCrossSpecDedup(t *testing.T) {
	resetRunMemo()
	t.Cleanup(resetRunMemo)
	cfg := smallConfig()
	want := func(e string) bool { return e == "fig11" || e == "fig12" }
	results, sum, err := Run(cfg, want, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Empty() {
		t.Fatalf("run reported failures: %s", sum)
	}
	if len(results) != 2 {
		t.Fatalf("executed %d specs, want fig11+fig12", len(results))
	}
	fig11, fig12 := results[0], results[1]
	if fig11.Spec.Name != "fig11" || fig12.Spec.Name != "fig12" {
		t.Fatalf("registry order broken: %s, %s", fig11.Spec.Name, fig12.Spec.Name)
	}
	// fig12 re-reads natives fig11 already computed (dedup,
	// linear_regression, ...): it must report hits, not simulations.
	if fig12.CacheHits == 0 {
		t.Errorf("fig12 reported no cross-spec hits: %+v", fig12)
	}
	if computes := len(runMemo.flights); computes != fig11.Simulated+fig12.Simulated {
		t.Errorf("executor accounting (%d+%d) disagrees with the memo (%d computes)",
			fig11.Simulated, fig12.Simulated, computes)
	}
}
