package experiments

import (
	"fmt"

	"repro/internal/baseline/sheriff"
	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/texttab"
	"repro/internal/workload"
)

// Accuracy scoring rules (§7.1):
//
//   - a bug counts as found when any reported source line belongs to the
//     bug's line set; otherwise it is a false negative;
//   - every reported application line outside all bug line sets is a
//     false positive;
//   - synthetic-library internals (libpthread.c) are excluded from line
//     accounting for every tool — profilers blaming generic lock code are
//     neither right nor spuriously wrong about the application;
//   - Sheriff-Detect reports allocation sites, which are scored against
//     the same bug line sets (reverse_index's malloc-wrapper site is how
//     it earns both a miss and a false positive).
const libFile = "libpthread.c"

// Tab1Row is one workload's accuracy outcome across the three tools.
type Tab1Row struct {
	Workload string
	Bugs     int

	LaserFN, LaserFP int
	VTuneFN, VTuneFP int

	SheriffStatus    sheriff.Status
	SheriffFN        int
	SheriffFP        int
	SheriffRan       bool
	LaserKind        core.ContentionKind // reported type for Table 2
	ActualKind       core.ContentionKind
	SheriffKind      core.ContentionKind
	SheriffKindValid bool
}

// AccuracyResult holds Table 1 plus everything needed for Table 2 and the
// Figure 9 threshold sweep.
type AccuracyResult struct {
	Rows []Tab1Row

	// Retained detector state for offline re-thresholding (Figure 9).
	pipelines map[string]*core.PipeState
	seconds   map[string]float64
}

// accuracySpec declares the Table 1 measurement to the experiment
// registry. One set of runs — every workload once under LASER (SAV 19),
// once under VTune, once under Sheriff-Detect where Sheriff can run —
// assembles three artifacts: Tables 1 and 2 and the Figure 9 threshold
// sweep, exactly as the paper derives all three from one measurement.
var accuracySpec = &Spec{
	Name:      "accuracy",
	Artifacts: []string{"tab1", "tab2", "fig9"},
	Assemble: func(cfg Config) (*Rendered, error) {
		acc, err := RunAccuracy(cfg)
		if err != nil {
			return nil, err
		}
		bugs, lfn, lfp, _, _, _, _ := acc.Totals()
		return &Rendered{
			Artifacts: []Artifact{
				{Name: "tab1", Text: acc.RenderTable1()},
				{Name: "tab2", Text: acc.RenderTable2()},
				{Name: "fig9", Text: RenderFigure9(acc.Figure9())},
			},
			Metrics: map[string]float64{
				"bugs": float64(bugs), "laser_fn": float64(lfn), "laser_fp": float64(lfp),
			},
		}, nil
	},
}

// RunAccuracy performs the Table 1 measurement: every workload once under
// LASER (SAV 19), once under VTune, once under Sheriff-Detect. The
// per-workload measurements are independent, so they run on the
// experiment worker pool; rows and retained detector state are assembled
// in workload order, identical to the serial result.
func RunAccuracy(cfg Config) (*AccuracyResult, error) {
	names := workloadNames()
	rows := make([]Tab1Row, len(names))
	subs := make([]*AccuracyResult, len(names))
	err := forEach(len(names), func(i int) error {
		sub := &AccuracyResult{
			pipelines: make(map[string]*core.PipeState),
			seconds:   make(map[string]float64),
		}
		row, err := accuracyRow(cfg, names[i], sub)
		if err != nil {
			return fmt.Errorf("accuracy %s: %w", names[i], err)
		}
		rows[i], subs[i] = row, sub
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &AccuracyResult{
		Rows:      rows,
		pipelines: make(map[string]*core.PipeState),
		seconds:   make(map[string]float64),
	}
	for _, sub := range subs {
		for name, p := range sub.pipelines {
			res.pipelines[name] = p
		}
		for name, s := range sub.seconds {
			res.seconds[name] = s
		}
	}
	return res, nil
}

func accuracyRow(cfg Config, name string, res *AccuracyResult) (Tab1Row, error) {
	bugs := bugdb.For(name)
	row := Tab1Row{Workload: name, Bugs: len(bugs)}
	if len(bugs) > 0 {
		row.ActualKind = bugs[0].Kind
	}

	// LASER: detection only (repair would freeze monitoring early).
	lres, err := runLaser(name, cfg.AccuracyScale, false, false, laserSAV, 1)
	if err != nil {
		return row, err
	}
	res.pipelines[name] = lres.Pipe
	res.seconds[name] = lres.Seconds
	var laserLocs []isa.SourceLoc
	bestRate := make(map[string]float64)
	for _, l := range lres.Report().Lines {
		if l.Loc.File == libFile {
			continue
		}
		laserLocs = append(laserLocs, l.Loc)
		if bugdb.IsBugLine(name, l.Loc) && l.Rate > bestRate[name] {
			bestRate[name] = l.Rate
			row.LaserKind = l.Kind
		}
	}
	row.LaserFN, row.LaserFP = score(name, laserLocs)

	// VTune.
	v, err := runVTune(name, cfg.AccuracyScale, 1)
	if err != nil {
		return row, err
	}
	var vtuneLocs []isa.SourceLoc
	for _, l := range v.Lines {
		if l.Loc.File == libFile {
			continue
		}
		vtuneLocs = append(vtuneLocs, l.Loc)
	}
	row.VTuneFN, row.VTuneFP = score(name, vtuneLocs)

	// Sheriff-Detect.
	sh, err := runSheriff(name, cfg.AccuracyScale, sheriff.Detect, false)
	if err != nil {
		return row, err
	}
	row.SheriffStatus = sh.Status
	if sh.Status == sheriff.OK {
		row.SheriffRan = true
		var locs []isa.SourceLoc
		for _, f := range sh.Findings {
			locs = append(locs, f.AllocSite)
		}
		row.SheriffFN, row.SheriffFP = score(name, locs)
		if len(sh.Findings) > 0 {
			// Sheriff only ever reports false sharing.
			row.SheriffKind = core.FalseSharing
			row.SheriffKindValid = true
		}
	}
	// Workloads Sheriff cannot run are marked x/i in the table; the
	// paper does not additionally count their bugs as Sheriff misses.
	return row, nil
}

// score counts false negatives and false positives for a report.
func score(name string, locs []isa.SourceLoc) (fn, fp int) {
	for _, b := range bugdb.For(name) {
		found := false
		for _, l := range locs {
			for _, bl := range b.Lines {
				if l == bl {
					found = true
				}
			}
		}
		if !found {
			fn++
		}
	}
	seen := map[isa.SourceLoc]bool{}
	for _, l := range locs {
		if seen[l] {
			continue
		}
		seen[l] = true
		if !bugdb.IsBugLine(name, l) {
			fp++
		}
	}
	return fn, fp
}

func workloadNames() []string { return workload.Names() }

// Totals sums FN/FP per tool.
func (r *AccuracyResult) Totals() (bugs, lfn, lfp, vfn, vfp, sfn, sfp int) {
	for _, row := range r.Rows {
		bugs += row.Bugs
		lfn += row.LaserFN
		lfp += row.LaserFP
		vfn += row.VTuneFN
		vfp += row.VTuneFP
		sfn += row.SheriffFN
		sfp += row.SheriffFP
	}
	return
}

// RenderTable1 formats the Table 1 reproduction.
func (r *AccuracyResult) RenderTable1() string {
	t := texttab.New("Table 1: performance bugs, false negatives (FN) and false positives (FP)",
		"benchmark", "bugs", "LASER FN", "LASER FP", "VTune FN", "VTune FP", "Sheriff", "Sh FN", "Sh FP")
	dash := func(n int) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprint(n)
	}
	for _, row := range r.Rows {
		sh := row.SheriffStatus.String()
		shFN, shFP := dash(row.SheriffFN), dash(row.SheriffFP)
		if !row.SheriffRan {
			shFN, shFP = sh, sh
		}
		t.Row(row.Workload, dash(row.Bugs), dash(row.LaserFN), dash(row.LaserFP),
			dash(row.VTuneFN), dash(row.VTuneFP), sh, shFN, shFP)
	}
	bugs, lfn, lfp, vfn, vfp, sfn, sfp := r.Totals()
	t.Row("Total", bugs, lfn, lfp, vfn, vfp, "", sfn, sfp)
	return t.Render()
}

// RenderTable2 formats the Table 2 reproduction: contention types for the
// buggy workloads.
func (r *AccuracyResult) RenderTable2() string {
	t := texttab.New("Table 2: contention type — actual vs LASERDETECT vs Sheriff-Detect",
		"benchmark", "actual", "LASER", "Sheriff")
	for _, row := range r.Rows {
		if row.Bugs == 0 {
			continue
		}
		laser := row.LaserKind.String()
		if row.LaserFN == row.Bugs {
			laser = "missed"
		}
		sh := "-"
		switch {
		case !row.SheriffRan:
			sh = row.SheriffStatus.String()
		case row.SheriffKindValid && row.SheriffFN < row.Bugs:
			sh = row.SheriffKind.String()
		}
		t.Row(row.Workload, row.ActualKind, laser, sh)
	}
	return t.Render()
}

// Fig9Point is one threshold of the Figure 9 sweep.
type Fig9Point struct {
	Threshold float64
	FN, FP    int
}

// Figure9 re-thresholds the retained LASER aggregates offline — the
// "adjustments can be made offline without rerunning the program" property
// of §4.2 — across the paper's 32…64K HITMs/s sweep.
func (r *AccuracyResult) Figure9() []Fig9Point {
	var out []Fig9Point
	for _, th := range []float64{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		p := Fig9Point{Threshold: th}
		for name, pipe := range r.pipelines {
			rep := pipe.ReportAt(r.seconds[name], th)
			var locs []isa.SourceLoc
			for _, l := range rep.Lines {
				if l.Loc.File == libFile {
					continue
				}
				locs = append(locs, l.Loc)
			}
			fn, fp := score(name, locs)
			p.FN += fn
			p.FP += fp
		}
		out = append(out, p)
	}
	return out
}

// RenderFigure9 formats the sweep.
func RenderFigure9(points []Fig9Point) string {
	t := texttab.New("Figure 9: detection accuracy vs rate threshold (HITMs/s)",
		"threshold", "false negatives", "false positives")
	for _, p := range points {
		t.Row(fmt.Sprintf("%.0f", p.Threshold), p.FN, p.FP)
	}
	return t.Render()
}
