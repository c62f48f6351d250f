package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline/sheriff"
	"repro/internal/metrics"
	"repro/internal/repair"
	"repro/internal/texttab"
	"repro/internal/workload"
)

// Fig10Row is one benchmark's normalized runtimes under LASER and VTune.
type Fig10Row struct {
	Workload string
	Laser    float64
	VTune    float64
}

// fig10Spec declares the monitoring-overhead comparison: per workload,
// one native baseline plus Runs seeded LASER (repair on) and VTune
// runs.
var fig10Spec = &Spec{
	Name:      "fig10",
	Artifacts: []string{"fig10"},
	Assemble: func(cfg Config) (*Rendered, error) {
		rows, err := RunFigure10(cfg)
		if err != nil {
			return nil, err
		}
		lg, vg := Geomeans(rows)
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig10", Text: RenderFigure10(rows)}},
			Metrics:   map[string]float64{"laser_geomean": lg, "vtune_geomean": vg},
		}, nil
	},
}

// RunFigure10 measures the monitoring overhead of LASER (SAV 19, repair
// on) and VTune against native execution for all 35 workloads. Workloads
// run concurrently on the experiment pool; the shared native baseline per
// workload is simulated once and memoized.
func RunFigure10(cfg Config) ([]Fig10Row, error) {
	names := workloadNames()
	rows := make([]Fig10Row, len(names))
	err := forEach(len(names), func(i int) error {
		name := names[i]
		l, err := normalizedRuntime(cfg, name, func(seed int64) (uint64, error) {
			res, err := runLaser(name, cfg.PerfScale, true, false, laserSAV, seed)
			if err != nil {
				return 0, err
			}
			return res.Stats.Cycles, nil
		})
		if err != nil {
			return fmt.Errorf("fig10 %s laser: %w", name, err)
		}
		v, err := normalizedRuntime(cfg, name, func(seed int64) (uint64, error) {
			out, err := runVTune(name, cfg.PerfScale, seed)
			if err != nil {
				return 0, err
			}
			return out.Stats.Cycles, nil
		})
		if err != nil {
			return fmt.Errorf("fig10 %s vtune: %w", name, err)
		}
		rows[i] = Fig10Row{Workload: name, Laser: l, VTune: v}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Geomeans returns the Figure 10 suite geomeans.
func Geomeans(rows []Fig10Row) (laser, vtune float64) {
	var ls, vs []float64
	for _, r := range rows {
		ls = append(ls, r.Laser)
		vs = append(vs, r.VTune)
	}
	return metrics.Geomean(ls), metrics.Geomean(vs)
}

// RenderFigure10 formats the overhead comparison.
func RenderFigure10(rows []Fig10Row) string {
	t := texttab.New("Figure 10: normalized runtime (lower is better)",
		"benchmark", "LASER", "VTune")
	for _, r := range rows {
		t.Row(r.Workload, r.Laser, r.VTune)
	}
	lg, vg := Geomeans(rows)
	t.Row("geomean", lg, vg)
	return t.Render()
}

// Fig11Row is one Figure 11 speedup bar.
type Fig11Row struct {
	Workload string
	Mode     string // "automatic" (LASERREPAIR) or "manual" (source fix)
	Speedup  float64
	// Repaired and Seeds count, for automatic rows, how many of the
	// seeds actually crossed the §4.4 trigger and repaired; the speedup
	// aggregates cycles from those runs only.
	Repaired, Seeds int
	// NoRepair marks automatic rows none of whose seeds crossed the
	// repair trigger threshold — the evidence was genuinely insufficient
	// at this scale, and a speedup of runs that never repaired would be
	// meaningless.
	NoRepair bool
	// NoBenefit marks manual rows whose Fixed build did not measurably
	// beat the native build — dedup's and reverse_index's fixes never
	// do in this reproduction (speedups ≈1.0002–1.0005 at every scale;
	// see ROADMAP), so a bare "1.00x" would misread as a measured null
	// result when the evidence is insufficient, the same failure mode
	// the automatic rows' marker exists for.
	NoBenefit bool
	// Winner is the measured speculative-repair winner installed by the
	// repaired runs (the lowest repaired seed's), empty for
	// direct-rewrite runs.
	Winner string
	// Declined marks automatic rows where the trigger fired but the
	// bounded trials measured no candidate beating the no-op baseline
	// on every triggering seed — a measured decline, distinct from the
	// trigger never firing (NoRepair).
	Declined bool
	// TrialNote compresses the trial evidence backing a decline: the
	// best rewrite's measured cycles against the no-op baseline it
	// failed to beat.
	TrialNote string
}

// fig11Spec declares the repair-speedup measurement: native baselines
// plus seeded repair-on LASER runs for the automatic bars, and Fixed
// builds for the manual bars.
var fig11Spec = &Spec{
	Name:      "fig11",
	Artifacts: []string{"fig11"},
	Assemble: func(cfg Config) (*Rendered, error) {
		rows, err := RunFigure11(cfg)
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64)
		for _, r := range rows {
			// Only rows with at least one repaired seed have a measured
			// speedup; untriggered and trial-declined rows render
			// markers instead of numbers.
			if r.Mode == "automatic" && r.Repaired > 0 {
				m["auto_"+r.Workload] = r.Speedup
			}
		}
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig11", Text: RenderFigure11(rows)}},
			Metrics:   m,
		}, nil
	},
}

// RunFigure11 measures the automatic (online repair) and manual (source
// fix) speedups of §7.2/Figure 11. All bars run concurrently.
//
// Automatic rows track each sampling seed's outcome separately: only
// runs that actually repaired contribute cycles to the speedup's
// trimmed mean, so one unlucky seed cannot poison the bar with
// never-repaired (native-speed) cycles, and the explicit marker row
// appears only when no seed repaired at all.
func RunFigure11(cfg Config) ([]Fig11Row, error) {
	autoNames, manualNames := fig11AutoSet, fig11ManualSet
	rows := make([]Fig11Row, len(autoNames)+len(manualNames))
	err := forEach(len(rows), func(i int) error {
		if i < len(autoNames) {
			name := autoNames[i]
			row, err := fig11AutoRow(cfg, name)
			if err != nil {
				return fmt.Errorf("fig11 auto %s: %w", name, err)
			}
			rows[i] = row
			return nil
		}
		name := manualNames[i-len(autoNames)]
		norm, err := normalizedRuntime(cfg, name, func(int64) (uint64, error) {
			st, err := runNative(name, cfg.PerfScale, workload.Fixed)
			if err != nil {
				return 0, err
			}
			return st.Cycles, nil
		})
		if err != nil {
			return fmt.Errorf("fig11 manual %s: %w", name, err)
		}
		row := Fig11Row{Workload: name, Mode: "manual", Speedup: 1 / norm}
		// A fix that cannot beat the native build at this scale (dedup's
		// I/O-paced pipeline, reverse_index's allocation-site fix) is
		// insufficient evidence, not a measured null result: a row whose
		// speedup would render as a bare 1.00x gets the explicit marker,
		// like the automatic rows mark an untriggered repair. A genuine
		// measured slowdown (≤0.99x) still renders its number.
		row.NoBenefit = row.Speedup >= 0.995 && row.Speedup < 1.005
		// With speculative repair on, the historically fix-resistant
		// workloads back their marker with measured trials: one
		// speculative repair run races the candidate slate against the
		// no-op baseline, and a measured decline turns "fix did not beat
		// native" from an assertion into trial numbers.
		if cfg.SpeculativeRepair && fig11TrialBacked[name] {
			res, err := runLaserProbe(name, cfg.PerfScale, laserSAV, 1)
			if err != nil {
				return fmt.Errorf("fig11 manual %s trials: %w", name, err)
			}
			if res.Winner == repair.DeclineName {
				row.TrialNote = trialNote(res.Trials)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// fig11AutoSet and fig11ManualSet are Figure 11's benchmark lists
// (§7.2).
var (
	fig11AutoSet   = []string{"histogram'", "linear_regression"}
	fig11ManualSet = []string{"dedup", "histogram'", "kmeans", "linear_regression", "lu_ncb", "reverse_index"}
	// fig11TrialBacked names the manual-row workloads whose "fix did not
	// beat native" markers are backed by a measured speculative-repair
	// decline when cfg.SpeculativeRepair is on.
	fig11TrialBacked = map[string]bool{"dedup": true, "reverse_index": true}
)

// trialNote compresses a measured decline's trial evidence: the best
// rewrite candidate's cycles against the no-op baseline it failed to
// beat. Empty when the trials carry no usable baseline.
func trialNote(trials []repair.TrialResult) string {
	var base *repair.TrialResult
	for i := range trials {
		if trials[i].Candidate == repair.DeclineName {
			base = &trials[i]
		}
	}
	if base == nil || base.Cycles == 0 {
		return ""
	}
	bestName, bestCycles := "", uint64(0)
	for _, t := range trials {
		if t.Candidate == repair.DeclineName || t.Err != "" {
			continue
		}
		if bestName == "" || t.Cycles < bestCycles {
			bestName, bestCycles = t.Candidate, t.Cycles
		}
	}
	if bestName == "" {
		// Every rewrite refused the region; report the default
		// candidate's reason and the no-op baseline the race measured.
		reason := "refused"
		for _, t := range trials {
			if t.Candidate != repair.DeclineName && t.Err != "" {
				reason = strings.TrimPrefix(t.Err, "repair: ")
				break
			}
		}
		return fmt.Sprintf("trials: no rewrite accepted — %s; no-op ran %d cycles", reason, base.Cycles)
	}
	delta := 100 * (float64(bestCycles)/float64(base.Cycles) - 1)
	return fmt.Sprintf("trials: best rewrite %s %+.1f%% vs no-op", bestName, delta)
}

// fig11AutoRow measures one automatic (online repair) bar, seed by seed.
func fig11AutoRow(cfg Config, name string) (Fig11Row, error) {
	row := Fig11Row{Workload: name, Mode: "automatic"}
	native, err := repeated(cfg, func(int64) (uint64, error) {
		st, err := runNative(name, cfg.PerfScale, workload.Native)
		if err != nil {
			return 0, err
		}
		return st.Cycles, nil
	})
	if err != nil {
		return row, err
	}
	if native == 0 {
		return row, fmt.Errorf("experiments: %s native ran in zero cycles", name)
	}
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	row.Seeds = runs
	repaired := make([]float64, 0, runs)
	for seed := 1; seed <= runs; seed++ {
		res, err := runLaser(name, cfg.PerfScale, true, cfg.SpeculativeRepair, laserSAV, int64(seed))
		if err != nil {
			return row, err
		}
		if !res.RepairApplied {
			if rerr := res.RepairError(); rerr != nil {
				// Under speculative repair the bounded trials themselves
				// can refuse the rewrite: that is a measured decline —
				// evidence the row reports — not a harness failure.
				if res.Winner == repair.DeclineName {
					row.Declined = true
					if row.TrialNote == "" {
						row.TrialNote = trialNote(res.Trials)
					}
					continue
				}
				return row, fmt.Errorf("repair declined: %w", rerr)
			}
			// This seed's sampling never crossed the trigger; its
			// native-speed cycles must not dilute the repaired mean.
			continue
		}
		if row.Winner == "" {
			row.Winner = res.Winner
		}
		repaired = append(repaired, float64(res.Stats.Cycles))
	}
	row.Repaired = len(repaired)
	if row.Repaired == 0 {
		// Every seed either never triggered (NoRepair) or measured a
		// decline in its trials (Declined takes precedence: the trigger
		// did fire and the trials did run).
		row.NoRepair = !row.Declined
		return row, nil
	}
	row.Speedup = native / metrics.TrimmedMean(repaired)
	return row, nil
}

// RenderFigure11 formats the speedups. Automatic bars where only some
// seeds repaired are annotated with the repaired/total seed count — the
// speedup aggregates the repaired runs only; fully-repaired bars render
// as a plain speedup. Evidence-insufficient rows of either mode render
// an explicit marker instead of a misleading number: automatic rows
// when no seed crossed the repair trigger, manual rows when the fixed
// build could not beat native at this scale.
func RenderFigure11(rows []Fig11Row) string {
	t := texttab.New("Figure 11: speedups from LaserRepair (automatic) and source fixes (manual)",
		"benchmark", "mode", "speedup")
	for _, r := range rows {
		cell := fmt.Sprintf("%.2fx", r.Speedup)
		if r.Repaired > 0 && r.Repaired < r.Seeds {
			cell = fmt.Sprintf("%.2fx (%d/%d seeds repaired)", r.Speedup, r.Repaired, r.Seeds)
		}
		if r.Winner != "" && r.Repaired > 0 {
			cell += fmt.Sprintf(" [winner: %s]", r.Winner)
		}
		if r.NoRepair {
			cell = "repair did not trigger at this scale"
		}
		if r.Declined && r.Repaired == 0 {
			cell = "repair declined by measured trials"
			if r.TrialNote != "" {
				cell += " (" + r.TrialNote + ")"
			}
		}
		if r.NoBenefit {
			cell = "fix did not beat native at this scale"
			if r.TrialNote != "" {
				cell += " (" + r.TrialNote + ")"
			}
		}
		t.Row(r.Workload, r.Mode, cell)
	}
	return t.Render()
}

// Fig12Row is one benchmark's monitoring-component breakdown.
type Fig12Row struct {
	Workload    string
	Overhead    float64 // normalized runtime under LASER
	DriverPct   float64 // driver cycles / application CPU time
	DetectorPct float64
}

// fig12Spec declares the component-breakdown measurement: per workload,
// one detection-only LASER run against the shared native baseline.
var fig12Spec = &Spec{
	Name:      "fig12",
	Artifacts: []string{"fig12"},
	Assemble: func(cfg Config) (*Rendered, error) {
		rows, err := RunFigure12(cfg)
		if err != nil {
			return nil, err
		}
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig12", Text: RenderFigure12(rows)}},
			Metrics:   map[string]float64{"workloads_over_10pct": float64(len(rows))},
		}, nil
	},
}

// RunFigure12 reports the driver/detector CPU shares for benchmarks whose
// LASER overhead is at least 10% — "very little time is spent inside the
// LASER system" (§7.2.1).
func RunFigure12(cfg Config) ([]Fig12Row, error) {
	names := workloadNames()
	candidates := make([]*Fig12Row, len(names))
	err := forEach(len(names), func(i int) error {
		name := names[i]
		res, err := runLaser(name, cfg.PerfScale, false, false, laserSAV, 1)
		if err != nil {
			return fmt.Errorf("fig12 %s: %w", name, err)
		}
		nat, err := runNative(name, cfg.PerfScale, workload.Native)
		if err != nil {
			return err
		}
		overhead := float64(res.Stats.Cycles) / float64(nat.Cycles)
		if overhead < 1.10 {
			return nil
		}
		var appCycles uint64
		for _, c := range res.Stats.CoreCycles {
			appCycles += c
		}
		if appCycles == 0 {
			return nil
		}
		candidates[i] = &Fig12Row{
			Workload:    name,
			Overhead:    overhead,
			DriverPct:   100 * float64(res.DriverStats.CyclesCharged) / float64(appCycles),
			DetectorPct: 100 * float64(res.DetectorCycle) / float64(appCycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, r := range candidates {
		if r != nil {
			rows = append(rows, *r)
		}
	}
	return rows, nil
}

// RenderFigure12 formats the component breakdown.
func RenderFigure12(rows []Fig12Row) string {
	t := texttab.New("Figure 12: time in detector and driver for benchmarks with ≥10% overhead",
		"benchmark", "slowdown", "driver %", "detector %")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%.2fx", r.Overhead),
			fmt.Sprintf("%.2f", r.DriverPct), fmt.Sprintf("%.2f", r.DetectorPct))
	}
	return t.Render()
}

// Fig13Point is one SAV of the dedup sweep.
type Fig13Point struct {
	SAV        int
	Normalized float64
}

// fig13SAVs is the Figure 13 sample-after sweep.
var fig13SAVs = []int{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}

// fig13Spec declares the dedup SAV sweep: one native baseline plus
// seeded detection-only LASER runs per sample-after value.
var fig13Spec = &Spec{
	Name:      "fig13",
	Artifacts: []string{"fig13"},
	Assemble: func(cfg Config) (*Rendered, error) {
		points, err := RunFigure13(cfg)
		if err != nil {
			return nil, err
		}
		m := make(map[string]float64)
		for _, p := range points {
			if p.SAV == 1 || p.SAV == 19 {
				m[fmt.Sprintf("sav%d", p.SAV)] = p.Normalized
			}
		}
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig13", Text: RenderFigure13(points)}},
			Metrics:   m,
		}, nil
	},
}

// RunFigure13 sweeps the sample-after value on dedup (§7.2.1, Figure 13).
// The sweep points run concurrently against one memoized dedup baseline.
func RunFigure13(cfg Config) ([]Fig13Point, error) {
	savs := fig13SAVs
	out := make([]Fig13Point, len(savs))
	err := forEach(len(savs), func(i int) error {
		sav := savs[i]
		norm, err := normalizedRuntime(cfg, "dedup", func(seed int64) (uint64, error) {
			res, err := runLaser("dedup", cfg.PerfScale, false, false, sav, seed)
			if err != nil {
				return 0, err
			}
			return res.Stats.Cycles, nil
		})
		if err != nil {
			return fmt.Errorf("fig13 sav=%d: %w", sav, err)
		}
		out[i] = Fig13Point{SAV: sav, Normalized: norm}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFigure13 formats the sweep.
func RenderFigure13(points []Fig13Point) string {
	t := texttab.New("Figure 13: dedup normalized runtime vs sample-after value",
		"SAV", "normalized runtime")
	for _, p := range points {
		t.Row(p.SAV, p.Normalized)
	}
	return t.Render()
}

// fig14Set lists the Figure 14 benchmarks; * marks simlarge-style inputs
// for Sheriff.
var fig14Set = []string{
	"blackscholes", "ferret", "histogram", "histogram'", "kmeans",
	"linear_regression", "lu_cb", "lu_ncb", "matrix_multiply", "pca",
	"radix", "raytrace.splash2x", "reverse_index", "string_match",
	"swaptions", "water_nsquared", "water_spatial",
}

// fig14Spec declares the Sheriff comparison: LASER repair runs, manual
// fixes where they exist, and both Sheriff modes at their per-workload
// scales.
var fig14Spec = &Spec{
	Name:      "fig14",
	Artifacts: []string{"fig14"},
	Assemble: func(cfg Config) (*Rendered, error) {
		rows, err := RunFigure14(cfg)
		if err != nil {
			return nil, err
		}
		return &Rendered{
			Artifacts: []Artifact{{Name: "fig14", Text: RenderFigure14(rows)}},
		}, nil
	},
}

// Fig14Row is one benchmark of the Sheriff comparison. Failed cells hold
// zero with Failed* set (the paper's "x").
type Fig14Row struct {
	Workload      string
	Laser         float64
	ManualFix     float64 // 0 when no fix exists
	SheriffDet    float64
	SheriffProt   float64
	SheriffFailed bool
}

// RunFigure14 compares LASER, the manually fixed builds, Sheriff-Detect
// and Sheriff-Protect (§7.3). Benchmarks run concurrently on the
// experiment pool.
func RunFigure14(cfg Config) ([]Fig14Row, error) {
	rows := make([]Fig14Row, len(fig14Set))
	err := forEach(len(fig14Set), func(i int) error {
		name := fig14Set[i]
		w, _ := workload.Get(name)
		row := Fig14Row{Workload: name}
		var err error
		row.Laser, err = normalizedRuntime(cfg, name, func(seed int64) (uint64, error) {
			res, err := runLaser(name, cfg.PerfScale, true, false, laserSAV, seed)
			if err != nil {
				return 0, err
			}
			return res.Stats.Cycles, nil
		})
		if err != nil {
			return fmt.Errorf("fig14 %s: %w", name, err)
		}
		if w.HasFix {
			row.ManualFix, err = normalizedRuntime(cfg, name, func(int64) (uint64, error) {
				st, err := runNative(name, cfg.PerfScale, workload.Fixed)
				if err != nil {
					return 0, err
				}
				return st.Cycles, nil
			})
			if err != nil {
				return err
			}
		}
		// Sheriff: OK workloads run at full scale; SmallOK ones forced at
		// the reduced simlarge-style half scale; the rest fail.
		scale, force := cfg.PerfScale, w.SheriffSmallOK
		if force {
			scale *= 0.5
		}
		if w.Sheriff != sheriff.OK && !force {
			row.SheriffFailed = true
		} else {
			nat, err := runNative(name, scale, workload.Native)
			if err != nil {
				return err
			}
			det, err := runSheriff(name, scale, sheriff.Detect, force)
			if err != nil {
				return err
			}
			prot, err := runSheriff(name, scale, sheriff.Protect, force)
			if err != nil {
				return err
			}
			if det.Status != sheriff.OK || prot.Status != sheriff.OK {
				row.SheriffFailed = true
			} else {
				row.SheriffDet = float64(det.Stats.Cycles) / float64(nat.Cycles)
				row.SheriffProt = float64(prot.Stats.Cycles) / float64(nat.Cycles)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure14 formats the comparison.
func RenderFigure14(rows []Fig14Row) string {
	t := texttab.New("Figure 14: normalized runtime — LASER vs manual fix vs Sheriff",
		"benchmark", "LASER", "manual fix", "Sheriff-Detect", "Sheriff-Protect")
	cell := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range rows {
		det, prot := cell(r.SheriffDet), cell(r.SheriffProt)
		if r.SheriffFailed {
			det, prot = "x", "x"
		}
		t.Row(r.Workload, cell(r.Laser), cell(r.ManualFix), det, prot)
	}
	return t.Render()
}
