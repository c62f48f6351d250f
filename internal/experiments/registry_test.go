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

// The registry completeness contract: for every spec, Enumerate covers
// everything Assemble consumes. Each spec's direct (standalone) run is
// the reference; the executor must produce byte-identical artifacts
// both cold and — after only the enumerated units were persisted — from
// a warm cache without simulating anything.
func TestRegistryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("triple full-registry evaluation; skipped in the reduced-scale race run")
	}
	cfg := cacheTestConfig()
	t.Cleanup(resetCache)

	// Direct references: each spec assembles standalone on a fresh
	// in-memory cache, simulating its own misses — the pre-registry
	// runner behaviour.
	direct := map[string]*Rendered{}
	for _, spec := range Specs() {
		resetCache()
		r, err := spec.Assemble(cfg)
		if err != nil {
			t.Fatalf("%s: direct assemble: %v", spec.Name, err)
		}
		direct[spec.Name] = r
	}

	compare := func(pass string, results []SpecResult) {
		if len(results) != len(Specs()) {
			t.Fatalf("%s: executed %d specs, want %d", pass, len(results), len(Specs()))
		}
		for _, res := range results {
			want := direct[res.Spec.Name]
			if !reflect.DeepEqual(res.Rendered.Artifacts, want.Artifacts) {
				t.Errorf("%s: %s artifacts differ from the direct run:\n%+v\nvs\n%+v",
					pass, res.Spec.Name, res.Rendered.Artifacts, want.Artifacts)
			}
			if !reflect.DeepEqual(res.Rendered.Metrics, want.Metrics) {
				t.Errorf("%s: %s metrics differ: %v vs %v",
					pass, res.Spec.Name, res.Rendered.Metrics, want.Metrics)
			}
			if res.Units != res.Simulated+res.CacheHits {
				t.Errorf("%s: %s accounting broken: %d units != %d simulated + %d hits",
					pass, res.Spec.Name, res.Units, res.Simulated, res.CacheHits)
			}
		}
	}
	all := func(string) bool { return true }

	// Executor, cold, against a persistent directory.
	dir := t.TempDir()
	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cold, coldSum, err := Run(cfg, all, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !coldSum.Empty() {
		t.Fatalf("cold run reported failures: %s", coldSum)
	}
	compare("cold", cold)

	// Executor, warm: a fresh in-memory layer over the same directory.
	// Every spec must assemble from cache hits alone — a single
	// simulation means its Enumerate misses a unit its Assemble needs.
	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	warm, warmSum, err := Run(cfg, all, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warmSum.Empty() {
		t.Fatalf("warm run reported failures: %s", warmSum)
	}
	compare("warm", warm)
	for _, res := range warm {
		if res.Simulated != 0 || !res.Warm {
			t.Errorf("warm: %s simulated %d of %d units — Enumerate does not cover Assemble",
				res.Spec.Name, res.Simulated, res.Units)
		}
	}
	if st := CacheStats(); st.Computes != 0 {
		t.Errorf("warm executor pass simulated %d units (stats %+v)", st.Computes, st)
	}
}

// The executor's cross-experiment dedup: a unit two specs share is
// simulated once and reported as a cache hit by the later spec.
func TestExecutorCrossSpecDedup(t *testing.T) {
	resetCache()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()
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
		t.Errorf("fig12 reported no cross-spec cache hits: %+v", fig12)
	}
	total := CacheStats()
	if int(total.Computes) != fig11.Simulated+fig12.Simulated {
		t.Errorf("executor accounting (%d+%d) disagrees with the cache (%d computes)",
			fig11.Simulated, fig12.Simulated, total.Computes)
	}
}
