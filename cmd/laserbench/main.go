// Command laserbench regenerates the paper's tables and figures from the
// simulated system and prints them as text.
//
// Usage:
//
//	laserbench [-exp all|fig3|tab1|tab2|fig9|fig10|fig11|fig12|fig13|fig14]
//	           [-ascale N] [-pscale N] [-runs N]
//	           [-speculative-repair=true|false]
//	           [-fault-plan SPEC] [-unit-deadline D]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// Every experiment is a registered spec that assembles its artifacts
// from simulations read through one in-process memo, so a simulation
// several figures share runs once; each figure fans its simulations out
// on every host core. Set LASER_BENCH_PARALLEL to pick the worker count
// (1 = fully serial). The rendered output is byte-identical at any
// parallelism — only wall time changes. Each experiment's stderr
// progress line reports how many simulations it ran that no earlier
// experiment had. -exp takes a comma-separated list of experiment or
// artifact names, or "all"; any other entry is an error, as is a
// positional argument, -runs below 1, a non-positive or non-finite
// -ascale/-pscale, or a negative -unit-deadline.
//
// -fault-plan SPEC (default $LASER_FAULT_PLAN) arms deterministic
// fault injection for chaos runs: seeded injected panics, errors and
// stalls per simulation, each a pure function of (seed, point,
// simulation key) so a plan replays identically at any parallelism.
// Every simulation runs under -unit-deadline (default 30s), and its
// failure is remembered for the rest of the run: each figure that
// reads a failed simulation renders an explicit QUARANTINED marker
// with the error, sibling figures render normally, and the process
// exits non-zero with a one-line summary. See EXPERIMENTS.md ("Chaos
// runs") and internal/faultinject for the plan syntax.
//
// -cpuprofile and -memprofile capture pprof profiles of the whole run;
// see EXPERIMENTS.md for the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
)

// options holds laserbench's flags.
type options struct {
	exp                    string
	ascale, pscale         float64
	runs                   int
	specRepair             bool
	faultPlan              string
	unitDeadline           time.Duration
	cpuprofile, memprofile string
}

// newFlags defines laserbench's flags on a fresh flag set.
func newFlags(handling flag.ErrorHandling) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("laserbench", handling)
	o := &options{}
	fs.StringVar(&o.exp, "exp", "all", "experiment to run (comma separated)")
	fs.Float64Var(&o.ascale, "ascale", 20, "accuracy experiment scale")
	fs.Float64Var(&o.pscale, "pscale", 1, "performance experiment scale")
	fs.IntVar(&o.runs, "runs", 3, "runs per performance data point")
	fs.BoolVar(&o.specRepair, "speculative-repair", true, "race repair candidates in bounded forked trials before installing (Figure 11 automatic rows)")
	fs.StringVar(&o.faultPlan, "fault-plan", "", "deterministic fault-injection plan (default $LASER_FAULT_PLAN; see internal/faultinject)")
	fs.DurationVar(&o.unitDeadline, "unit-deadline", 0, "deadline of every simulation (0 = default 30s)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file")
	return fs, o
}

// validate rejects values the flag parser accepts but no run can mean,
// before any simulation starts; args are the positional arguments left
// after the flags. Each error names the offending flag or argument.
func (o *options) validate(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q: laserbench takes no positional arguments (select several experiments with -exp a,b)", args[0])
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", o.runs)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"-ascale", o.ascale}, {"-pscale", o.pscale}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %g: want a positive finite scale", f.name, f.v)
		}
	}
	if o.unitDeadline < 0 {
		return fmt.Errorf("-unit-deadline %s: want 0 (default) or a positive duration", o.unitDeadline)
	}
	return nil
}

func main() {
	fs, o := newFlags(flag.ExitOnError)
	fs.Parse(os.Args[1:])

	fail := func(err error) {
		// Flush an in-flight CPU profile before exiting (StopCPUProfile
		// is a no-op when none is active).
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "laserbench:", err)
		os.Exit(1)
	}

	if err := o.validate(fs.Args()); err != nil {
		fail(err)
	}
	want, err := parseExp(o.exp)
	if err != nil {
		fail(err)
	}
	planSpec := o.faultPlan
	if planSpec == "" {
		planSpec = os.Getenv("LASER_FAULT_PLAN")
	}
	if planSpec != "" {
		plan, err := faultinject.Parse(planSpec)
		if err != nil {
			fail(err)
		}
		faultinject.Enable(plan)
		// The canonical plan string: re-running with it replays the
		// exact same faults, regardless of interleaving.
		fmt.Fprintf(os.Stderr, "laserbench: fault injection enabled: %s\n", plan)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{AccuracyScale: o.ascale, PerfScale: o.pscale, Runs: o.runs, SpeculativeRepair: o.specRepair}
	all := want["all"]
	start := time.Now()
	// Figures stream to stdout as each experiment assembles, so a
	// failure late in a long evaluation keeps everything rendered so
	// far on the terminal. Quarantined specs stream explicit failure
	// markers; the run keeps going and the exit status reports them.
	runOpts := experiments.RunOptions{
		Progress: os.Stderr,
		Deadline: o.unitDeadline,
		OnSpec: func(res experiments.SpecResult) {
			for _, a := range res.Rendered.Artifacts {
				if all || want[a.Name] || want[res.Spec.Name] {
					fmt.Println(a.Text)
				}
			}
		},
	}
	results := experiments.Run(cfg, func(e string) bool { return all || want[e] }, runOpts)
	if len(results) > 0 {
		fmt.Fprintf(os.Stderr, "laserbench: %d experiments in %.1fs\n", len(results), time.Since(start).Seconds())
	}

	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
	// Quarantined specs: everything above still rendered (markers for
	// the failed specs, real artifacts for the rest) — but the process
	// exit must not claim success.
	var failed []string
	for _, res := range results {
		if res.Err != nil {
			failed = append(failed, res.Spec.Name)
		}
	}
	if len(failed) > 0 {
		fail(fmt.Errorf("FAILED: %d of %d experiments quarantined: %s", len(failed), len(results), strings.Join(failed, ", ")))
	}
}

// parseExp splits the -exp list and checks every entry against the
// registered experiments and their artifacts (plus "all"),
// so a misspelt name fails the run instead of silently selecting
// nothing.
func parseExp(list string) (map[string]bool, error) {
	known := map[string]bool{"all": true}
	for _, s := range experiments.Specs() {
		known[s.Name] = true
		for _, a := range s.Artifacts {
			known[a] = true
		}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			names := make([]string, 0, len(known))
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown -exp entry %q: want a comma-separated list of %s", e, strings.Join(names, ", "))
		}
		want[e] = true
	}
	return want, nil
}
