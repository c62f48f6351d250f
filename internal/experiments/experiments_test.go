package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// Figure 3: the characterization quadrants must show the paper's shape —
// RW records accurate, WW records poor, adjacent-PC rescue significant.
func TestFigure3Shape(t *testing.T) {
	_, sums, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[CharCategory]CharSummary{}
	for _, s := range sums {
		byCat[s.Category] = s
	}
	for _, cat := range []CharCategory{TSRW, FSRW} {
		s := byCat[cat]
		if s.AddrOK < 0.60 || s.AddrOK > 0.90 {
			t.Errorf("%s addr accuracy = %.2f, want ~0.75", cat, s.AddrOK)
		}
		if s.PCExact < 0.30 || s.PCExact > 0.55 {
			t.Errorf("%s exact-PC = %.2f, want ~0.40", cat, s.PCExact)
		}
		if s.PCAdjacent < s.PCExact+0.15 {
			t.Errorf("%s adjacent-PC = %.2f barely above exact %.2f", cat, s.PCAdjacent, s.PCExact)
		}
	}
	for _, cat := range []CharCategory{TSWW, FSWW} {
		s := byCat[cat]
		if s.AddrOK > 0.20 {
			t.Errorf("%s addr accuracy = %.2f, want < 0.20 (WW is imprecise)", cat, s.AddrOK)
		}
		if s.PCAdjacent < 0.20 || s.PCAdjacent > 0.50 {
			t.Errorf("%s adjacent-PC = %.2f, want ~0.34", cat, s.PCAdjacent)
		}
	}
	if text := RenderFigure3(sums); !strings.Contains(text, "TSRW") {
		t.Error("render broken")
	}
}

// A focused accuracy check on the headline workloads (full Table 1 runs in
// the benchmark harness).
func TestAccuracyHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-calibrated accuracy sweep; skipped in the reduced-scale race run")
	}
	cfg := Config{AccuracyScale: 6, Runs: 1, PerfScale: 0.3}
	for _, tc := range []struct {
		name      string
		wantKind  core.ContentionKind
		anyKindOK bool
	}{
		{name: "histogram'", wantKind: core.FalseSharing},
		{name: "kmeans", wantKind: core.TrueSharing},
		{name: "linear_regression", wantKind: core.Unknown, anyKindOK: false},
		{name: "volrend", wantKind: core.TrueSharing},
		{name: "streamcluster", wantKind: core.FalseSharing},
	} {
		res := &AccuracyResult{
			pipelines: map[string]*core.PipeState{},
			seconds:   map[string]float64{},
		}
		row, err := accuracyRow(cfg, tc.name, res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if row.LaserFN != 0 {
			t.Errorf("%s: LASER missed the bug (FN=%d)", tc.name, row.LaserFN)
			continue
		}
		if row.LaserKind != tc.wantKind {
			t.Errorf("%s: LASER kind = %v, want %v", tc.name, row.LaserKind, tc.wantKind)
		}
	}
}

// dedup: LASER finds the queue true sharing that VTune's 2K threshold
// misses (the paper's Table 1 FN).
func TestDedupVTuneFalseNegative(t *testing.T) {
	cfg := Config{AccuracyScale: 8, Runs: 1}
	res := &AccuracyResult{
		pipelines: map[string]*core.PipeState{},
		seconds:   map[string]float64{},
	}
	row, err := accuracyRow(cfg, "dedup", res)
	if err != nil {
		t.Fatal(err)
	}
	if row.LaserFN != 0 {
		t.Errorf("LASER missed dedup's queue contention")
	}
	if row.VTuneFN != 1 {
		t.Errorf("VTune FN = %d, want 1 (threshold miss)", row.VTuneFN)
	}
	if row.LaserKind != core.TrueSharing {
		t.Errorf("dedup kind = %v, want TS", row.LaserKind)
	}
}

// Quiet workloads must report nothing under LASER.
func TestAccuracyQuietWorkloads(t *testing.T) {
	cfg := Config{AccuracyScale: 3, Runs: 1}
	for _, name := range []string{"blackscholes", "string_match", "pca", "fft", "ocean_cp"} {
		res := &AccuracyResult{
			pipelines: map[string]*core.PipeState{},
			seconds:   map[string]float64{},
		}
		row, err := accuracyRow(cfg, name, res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if row.LaserFP != 0 {
			t.Errorf("%s: LASER FP = %d, want 0", name, row.LaserFP)
		}
	}
}

// Sheriff misses the sync-free false sharing and reports reverse_index's
// allocation site instead of its code (§7.1).
func TestSheriffAccuracyMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-calibrated accuracy sweep; skipped in the reduced-scale race run")
	}
	cfg := Config{AccuracyScale: 6, Runs: 1}
	for _, tc := range []struct {
		name           string
		wantFN, wantFP int
	}{
		{"linear_regression", 1, 0}, // sync-free: no windows to sample
		{"histogram'", 1, 0},
		{"reverse_index", 1, 1}, // found, but only the malloc wrapper site
	} {
		res := &AccuracyResult{
			pipelines: map[string]*core.PipeState{},
			seconds:   map[string]float64{},
		}
		row, err := accuracyRow(cfg, tc.name, res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !row.SheriffRan {
			t.Fatalf("%s: sheriff did not run (%v)", tc.name, row.SheriffStatus)
		}
		if row.SheriffFN != tc.wantFN || row.SheriffFP != tc.wantFP {
			t.Errorf("%s: sheriff FN/FP = %d/%d, want %d/%d",
				tc.name, row.SheriffFN, row.SheriffFP, tc.wantFN, tc.wantFP)
		}
	}
}

// Figure 9's monotone shape: false positives shrink and false negatives
// grow as the threshold rises.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-calibrated accuracy sweep; skipped in the reduced-scale race run")
	}
	cfg := Config{AccuracyScale: 5, Runs: 1}
	res := &AccuracyResult{
		pipelines: map[string]*core.PipeState{},
		seconds:   map[string]float64{},
	}
	// A representative subset keeps the test fast.
	for _, name := range []string{"histogram'", "kmeans", "linear_regression", "reverse_index", "word_count"} {
		if _, err := accuracyRow(cfg, name, res); err != nil {
			t.Fatal(err)
		}
	}
	points := res.Figure9()
	if len(points) != 12 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.FP <= last.FP {
		t.Errorf("FP should fall with threshold: %d → %d", first.FP, last.FP)
	}
	if first.FN > last.FN {
		t.Errorf("FN should rise with threshold: %d → %d", first.FN, last.FN)
	}
	if first.FN != 0 {
		t.Errorf("lowest threshold should miss nothing, FN=%d", first.FN)
	}
	if text := RenderFigure9(points); !strings.Contains(text, "threshold") {
		t.Error("render broken")
	}
}

// Figure 10 on a subset: LASER cheap, VTune expensive, repair speedups.
func TestFigure10Subset(t *testing.T) {
	cfg := Config{PerfScale: 0.5, Runs: 1}
	check := func(name string, laserMax, vtuneMin float64) {
		l, err := normalizedRuntime(cfg, name, func(seed int64) (uint64, error) {
			res, err := runLaser(name, cfg.PerfScale, true, false, laserSAV, seed)
			if err != nil {
				return 0, err
			}
			return res.Stats.Cycles, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l > laserMax {
			t.Errorf("%s LASER overhead %.3f, want ≤ %.2f", name, l, laserMax)
		}
		if vtuneMin > 0 {
			v, err := normalizedRuntime(cfg, name, func(seed int64) (uint64, error) {
				out, err := runVTune(name, cfg.PerfScale, seed)
				if err != nil {
					return 0, err
				}
				return out.Stats.Cycles, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v < vtuneMin {
				t.Errorf("%s VTune overhead %.3f, want ≥ %.2f", name, v, vtuneMin)
			}
		}
	}
	check("blackscholes", 1.03, 0)
	check("string_match", 1.03, 3) // VTune's load-sampling worst case
	// Repair makes these FASTER than native despite monitoring.
	check("histogram'", 0.97, 0)
	check("linear_regression", 0.97, 0)
	// The lu_ncb layout coincidence.
	check("lu_ncb", 0.95, 0)
}

// Figure 13's shape on dedup: SAV=1 is markedly slower than SAV=19.
func TestFigure13Shape(t *testing.T) {
	cfg := Config{PerfScale: 0.5, Runs: 1}
	points, err := RunFigure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at1, at19 float64
	for _, p := range points {
		if p.SAV == 1 {
			at1 = p.Normalized
		}
		if p.SAV == 19 {
			at19 = p.Normalized
		}
	}
	// Our dedup pipeline is I/O-paced, so the absolute swing is smaller
	// than the paper's CPU-bound dedup; the direction must still hold.
	if at1 < at19 {
		t.Errorf("SAV=1 (%.3f) should cost at least as much as SAV=19 (%.3f)", at1, at19)
	}
	if text := RenderFigure13(points); !strings.Contains(text, "SAV") {
		t.Error("render broken")
	}
}

// Figure 14 mechanisms on a subset: Sheriff repairs linear_regression's
// false sharing incidentally, and drowns water_nsquared in sync costs.
func TestFigure14Mechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-calibrated accuracy sweep; skipped in the reduced-scale race run")
	}
	cfg := Config{PerfScale: 0.5, Runs: 1}
	rows, err := RunFigure14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig14Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	if r := byName["linear_regression"]; r.SheriffFailed || r.SheriffProt > 0.6 {
		t.Errorf("Sheriff-Protect should fix linear_regression incidentally: %+v", r)
	}
	if r := byName["water_nsquared"]; r.SheriffFailed || r.SheriffDet < 1.5 {
		t.Errorf("Sheriff should be slow on sync-heavy water_nsquared: %+v", r)
	}
	if r := byName["kmeans"]; !r.SheriffFailed {
		t.Errorf("kmeans should fail under Sheriff: %+v", r)
	}
	if r := byName["lu_ncb"]; r.SheriffFailed {
		t.Errorf("lu_ncb should run under Sheriff at simlarge scale: %+v", r)
	}
	if text := RenderFigure14(rows); !strings.Contains(text, "water_nsquared") {
		t.Error("render broken")
	}
}

// Figure 11 rendering: the per-seed repair accounting shows through —
// fully-repaired bars render plainly, partially-repaired bars carry the
// repaired/total annotation, and only zero-repair bars get the marker.
func TestFigure11RenderSeedAccounting(t *testing.T) {
	rows := []Fig11Row{
		{Workload: "all", Mode: "automatic", Speedup: 1.5, Repaired: 3, Seeds: 3},
		{Workload: "some", Mode: "automatic", Speedup: 1.4, Repaired: 2, Seeds: 3},
		{Workload: "none", Mode: "automatic", NoRepair: true, Seeds: 3},
		{Workload: "manual", Mode: "manual", Speedup: 6.5},
		{Workload: "nofix", Mode: "manual", Speedup: 1.0002, NoBenefit: true},
	}
	text := RenderFigure11(rows)
	for _, want := range []string{
		"1.50x",
		"1.40x (2/3 seeds repaired)",
		"repair did not trigger at this scale",
		"6.50x",
		"fix did not beat native at this scale",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "(3/3") {
		t.Errorf("fully-repaired bar should not be annotated:\n%s", text)
	}
}

// Figure 12 accounting: driver and detector shares must be small even for
// the most monitored workload.
func TestFigure12Accounting(t *testing.T) {
	res, err := runLaser("kmeans", 0.5, false, false, laserSAV, 1)
	if err != nil {
		t.Fatal(err)
	}
	var app uint64
	for _, c := range res.Stats.CoreCycles {
		app += c
	}
	driverPct := 100 * float64(res.DriverStats.CyclesCharged) / float64(app)
	detPct := 100 * float64(res.DetectorCycle) / float64(app)
	if driverPct > 5 || detPct > 5 {
		t.Errorf("component shares too large: driver %.2f%%, detector %.2f%%", driverPct, detPct)
	}
	if driverPct == 0 && detPct == 0 {
		t.Error("no monitoring cost recorded at all")
	}
}
