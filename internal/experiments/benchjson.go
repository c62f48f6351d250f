package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/workload"
	"repro/laser"
)

// This file is the machine-readable benchmark output behind laserbench's
// -json flag: per-figure wall times and key scalar metrics, plus an
// intra-run engine microbenchmark (ns per simulated instruction, serial
// vs parallel), written as one JSON document (BENCH_PR3.json in CI) so
// the performance trajectory across PRs is tracked as an artifact
// instead of being lost in logs.

// BenchFigure records one experiment's wall time, cache accounting and
// headline scalars. Warm marks a wall time measured against an
// already-warm run cache — zero simulations, so the figure timed only
// cache assembly; comparing warm and cold wall times across runs is
// meaningless, which historically went unflagged.
type BenchFigure struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Warm        bool    `json:"warm"`
	// Units is the experiment's work-unit count; Simulated of them were
	// computed this run, CacheHits served from the run cache.
	Units     int `json:"units"`
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// FailedUnits counts quarantined units; non-zero means the figure's
	// artifacts are failure markers, not real renderings.
	FailedUnits int `json:"failed_units,omitempty"`
	// SimulatedSeconds is the observed wall time of this run's
	// simulations alone (0 when warm); EstCost is the cost model's
	// estimate for all the figure's units, in model units — the pair is
	// the per-figure calibration signal for cost.go's table.
	SimulatedSeconds float64            `json:"simulated_seconds"`
	EstCost          float64            `json:"est_cost"`
	Metrics          map[string]float64 `json:"metrics,omitempty"`
}

// BenchIntraRun is one single-machine engine measurement: the same
// simulation wall-timed under the serial scheduler and the intra-run
// parallel engine.
type BenchIntraRun struct {
	Workload           string  `json:"workload"`
	Scale              float64 `json:"scale"`
	Workers            int     `json:"workers"`
	Instructions       uint64  `json:"instructions"`
	SerialSeconds      float64 `json:"serial_seconds"`
	ParallelSeconds    float64 `json:"parallel_seconds"`
	SerialNsPerInstr   float64 `json:"serial_ns_per_instr"`
	ParallelNsPerInstr float64 `json:"parallel_ns_per_instr"`
	Speedup            float64 `json:"speedup"`
}

// BenchReport is the top-level -json document.
type BenchReport struct {
	GeneratedBy   string          `json:"generated_by"`
	GoVersion     string          `json:"go_version"`
	NumCPU        int             `json:"num_cpu"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	PoolWorkers   int             `json:"pool_workers"`
	AccuracyScale float64         `json:"accuracy_scale"`
	PerfScale     float64         `json:"perf_scale"`
	Runs          int             `json:"runs"`
	Figures       []BenchFigure   `json:"figures"`
	IntraRun      []BenchIntraRun `json:"intra_run,omitempty"`
	// Failures is the executor's failure summary: quarantined units and
	// transient retries. Omitted on a fault-free run.
	Failures *FailureSummary `json:"failures,omitempty"`
}

// RecordFailures embeds the run's failure summary (dropped when empty,
// so fault-free BENCH documents are unchanged).
func (r *BenchReport) RecordFailures(sum *FailureSummary) {
	if !sum.Empty() {
		r.Failures = sum
	}
}

// NewBenchReport stamps the host and configuration.
func NewBenchReport(cfg Config) *BenchReport {
	return &BenchReport{
		GeneratedBy:   "laserbench",
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		PoolWorkers:   Parallelism(),
		AccuracyScale: cfg.AccuracyScale,
		PerfScale:     cfg.PerfScale,
		Runs:          cfg.Runs,
	}
}

// Record appends one executed spec's result: the executor's wall time
// and per-unit cache accounting plus the spec's headline metrics.
func (r *BenchReport) Record(res SpecResult) {
	fig := BenchFigure{
		Name:             res.Spec.Name,
		WallSeconds:      res.WallSeconds,
		Warm:             res.Warm,
		Units:            res.Units,
		Simulated:        res.Simulated,
		CacheHits:        res.CacheHits,
		FailedUnits:      res.FailedUnits,
		SimulatedSeconds: res.SimulatedSeconds,
		EstCost:          res.EstCost,
	}
	if res.Rendered != nil {
		fig.Metrics = res.Rendered.Metrics
	}
	r.Figures = append(r.Figures, fig)
}

// MeasureIntraRun wall-times one native high-scale run of each named
// workload under both execution engines. The simulated statistics are
// byte-identical by construction; only the wall clock differs, which is
// exactly what this records.
func (r *BenchReport) MeasureIntraRun(names []string, scale float64, workers int) error {
	for _, name := range names {
		w, ok := workload.Get(name)
		if !ok {
			continue
		}
		run := func(par int) (time.Duration, uint64, error) {
			img := w.Build(workload.Options{Scale: scale})
			start := time.Now()
			st, err := laser.RunNativeParallel(img, 4, par)
			if err != nil {
				return 0, 0, err
			}
			return time.Since(start), st.Instructions, nil
		}
		serial, instr, err := run(1)
		if err != nil {
			return err
		}
		parallel, _, err := run(workers)
		if err != nil {
			return err
		}
		r.IntraRun = append(r.IntraRun, BenchIntraRun{
			Workload:           name,
			Scale:              scale,
			Workers:            workers,
			Instructions:       instr,
			SerialSeconds:      serial.Seconds(),
			ParallelSeconds:    parallel.Seconds(),
			SerialNsPerInstr:   float64(serial.Nanoseconds()) / float64(instr),
			ParallelNsPerInstr: float64(parallel.Nanoseconds()) / float64(instr),
			Speedup:            float64(serial) / float64(parallel),
		})
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
