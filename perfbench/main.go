// Command perfbench is the repository's benchmark. It drives the LASER
// stack the way its users do — detect→repair sessions through the laser
// package, and concurrent clients against a laserd daemon — for a fixed
// wall-clock window, checks every output against a reference, and prints
// one JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds the command
// and laserd first):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	alu             ALU-bound sessions (swaptions) on the two-worker intra-run
//	                parallel engine: the simulated machine's private-execution
//	                path, with almost no monitoring work
//	fs_repair       false-sharing sessions (histogram') that detect, race
//	                repair candidates in forked trials and hot-swap the
//	                program online
//	laserd          an in-memory laserd under four closed-loop HTTP/SSE clients
//	laserd_durable  the same traffic against a laserd journaling to a state
//	                directory, booted by crash recovery
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, computed from spans the
// benchmark records around its calls into each layer, and the spans are
// written to .bench_build/perfbench/trace-WORKLOAD-seedN.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit. Each workload
// reports all of them; one that a workload's path never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"session_p90_ms", "ms"},             // 90th percentile of the session wall times
	{"sim_mips", "Minstr/s"},             // simulated instructions completed per second of the window
	{"build_ms", "ms"},                   // workload image build
	{"attach_ms", "ms"},                  // laser.Attach, or POST /sessions
	{"step_us", "us"},                    // one Session.Step (one poll interval)
	{"step_ns_per_instr", "ns"},          // Session.Step time per simulated instruction
	{"report_ms", "ms"},                  // final report render
	{"run_ms", "ms"},                     // POST /sessions/{id}/run
	{"first_event_ms", "ms"},             // run accepted to first SSE frame
	{"stream_ms", "ms"},                  // run accepted to eof frame
	{"delete_ms", "ms"},                  // DELETE /sessions/{id}
	{"event_delivery_us", "us"},          // server append stamp to client receipt
	{"checkpoint_write_us", "us"},        // laserd's latest checkpoint write, sampled per session
	{"checkpoints_per_session", "count"}, // journal checkpoints written
	{"checkpoint_kib_per_session", "KiB"},
	{"polls_per_session", "count"},
	{"events_per_session", "count"},
	{"instr_per_session", "count"},
	{"pebs_records_per_session", "count"},
	{"repairs_per_session", "count"},
	{"trials_per_session", "count"},
}

// run is one benchmark invocation: its inputs, and what the workload
// measured.
type run struct {
	seed    int64
	rng     *rand.Rand
	window  time.Duration
	tr      *tracer
	binDir  string // laserd lives here
	workDir string // scratch space inside the checkout

	setup    samples // each set-up the run performed
	sessions samples // end-to-end latency of each measured session
	instr    uint64  // simulated instructions of the measured sessions
	wall     time.Duration

	attempted, failed int
	errs              []string
	layer             map[string]float64
}

// fail records a failed operation, keeping the first few messages.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *run) error{
	"alu":            runALU,
	"fs_repair":      runFSRepair,
	"laserd":         func(ctx context.Context, r *run) error { return runLaserd(ctx, r, false) },
	"laserd_durable": func(ctx context.Context, r *run) error { return runLaserd(ctx, r, true) },
}

// runLimit bounds a whole invocation, set-up included, well inside the
// time a caller allows one run.
const runLimit = 150 * time.Second

// warmup is how long every workload runs its loop untimed before the
// measured window opens.
const warmup = time.Second

func main() {
	name := flag.String("workload", "", "workload to run (alu, fs_repair, laserd, laserd_durable)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the laserd binary")
	workDir := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for daemon state, logs and traces")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (have %v)", *name, names)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	r := &run{
		seed:    *seed,
		rng:     rand.New(rand.NewSource(*seed)),
		window:  time.Duration(*seconds) * time.Second,
		tr:      newTracer(*trace == 1),
		binDir:  *binDir,
		workDir: *workDir,
		layer:   map[string]float64{},
	}
	// A signal or the run limit cancels the workload through its normal
	// error path, so every daemon it started is stopped before exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	err := fn(ctx, r)
	cancel()
	stop()
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, e)
	}
	if r.attempted == 0 || len(r.sessions) == 0 {
		fatalf("%s: no session completed in the window", *name)
	}

	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.tr.on {
		r.layer["session_p90_ms"] = ms(r.sessions.quantile(0.9))
		r.layer["sim_mips"] = float64(r.instr) / r.wall.Seconds() / 1e6
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
		path := filepath.Join(r.workDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fatalf("write trace: %v", err)
		}
	} else {
		res.Metrics["session_ms"] = metric{Value: ms(r.sessions.midMean()), Unit: "ms"}
		res.Metrics["setup_s"] = metric{Value: secs(r.setup.median()), Unit: "s"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d sessions in %.2fs, %d failed\n",
		*name, *seed, len(r.sessions), r.wall.Seconds(), r.failed)
	blob, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
