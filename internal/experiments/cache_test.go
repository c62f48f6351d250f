package experiments

import (
	"testing"
)

// cacheTestConfig keeps the cache tests to a few seconds: Figure 3's
// 160 characterization cases plus the Figure 11 repair runs and the
// Figure 13 SAV sweep cover every cached tool flavor that renders
// figures (char, native, laser with and without repair).
func cacheTestConfig() Config {
	return Config{AccuracyScale: 2, PerfScale: 0.3, Runs: 1}
}

// captureFigures renders the cache-test figure subset.
func captureFigures(t *testing.T, cfg Config) (fig3, fig11, fig13 string) {
	t.Helper()
	_, sums, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunFigure11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunFigure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return RenderFigure3(sums), RenderFigure11(rows), RenderFigure13(points)
}

// TestColdWarmByteIdentical pins the persistence contract: a cold run
// populates the cache, and a warm run — fresh in-memory layer, same
// directory — simulates nothing and renders every figure byte-identical.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(resetCache)
	cfg := cacheTestConfig()

	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	cold3, cold11, cold13 := captureFigures(t, cfg)
	if st := CacheStats(); st.Computes == 0 {
		t.Fatalf("cold run computed nothing: %+v", st)
	}

	resetCache()
	if err := SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	warm3, warm11, warm13 := captureFigures(t, cfg)
	st := CacheStats()
	if st.Computes != 0 {
		t.Errorf("warm run simulated %d workloads, want 0 (stats %+v)", st.Computes, st)
	}
	if st.DiskHits == 0 {
		t.Errorf("warm run had no disk hits: %+v", st)
	}
	if warm3 != cold3 {
		t.Errorf("Figure 3 differs cold vs warm:\n%s\nvs\n%s", cold3, warm3)
	}
	if warm11 != cold11 {
		t.Errorf("Figure 11 differs cold vs warm:\n%s\nvs\n%s", cold11, warm11)
	}
	if warm13 != cold13 {
		t.Errorf("Figure 13 differs cold vs warm:\n%s\nvs\n%s", cold13, warm13)
	}
}
