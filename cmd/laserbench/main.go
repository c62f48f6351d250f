// Command laserbench regenerates the paper's tables and figures from the
// simulated system and prints them as text.
//
// Usage:
//
//	laserbench [-exp all|fig3|tab1|tab2|fig9|fig10|fig11|fig12|fig13|fig14]
//	           [-ascale N] [-pscale N] [-runs N]
//	           [-speculative-repair=true|false]
//	           [-cache DIR] [-shard I/N] [-shard-partition cost|hash]
//	           [-cache-gc AGE] [-cache-gc-bytes N]
//	           [-fault-plan SPEC] [-unit-retries N]
//	           [-unit-deadline-floor D] [-unit-backoff D]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// Every experiment is a registered spec (enumerated work units plus a
// cache-pure assembly step); a single executor runs the selected specs'
// units concurrently on every host core and assembles each figure from
// the run cache. Set LASER_BENCH_PARALLEL to pick the worker count
// (1 = fully serial). The rendered output is byte-identical at any
// parallelism — only wall time changes. -exp takes a comma-separated
// list of experiment or artifact names, "all" or "none"; any other
// entry is an error.
//
// -cache DIR attaches a persistent run cache: every simulation result
// is content-addressed by (workload, scale, variant, tool, SAV, seed,
// config fingerprint, code version) and persisted, so re-runs only
// simulate misses. -shard I/N (0 ≤ I < N, requires -cache) runs the
// shard warming mode instead of rendering: the selected experiments'
// work units are partitioned deterministically and only slice I is
// simulated into the cache. -shard-partition picks the partition:
// "cost" (default) balances the units' estimated simulation cost across
// shards so their wall times track each other; "hash" is the historical
// cache-key-hash split. Run N shards (concurrently, e.g. as a CI matrix
// sharing the cache directory or merging cache artifacts), then render
// with a plain `laserbench -cache DIR` — it assembles the figures from
// cache hits alone, byte-identical to an un-sharded run, and the final
// "runcache:" stderr line reports simulated=0.
//
// -cache-gc AGE prunes entries whose last access is older than AGE
// (e.g. 720h) after the run; -cache-gc-bytes N additionally evicts
// least-recently-used entries until the directory fits N bytes. Both
// require -cache, refuse to run in shard mode (a shard must not evict
// its siblings' fresh entries), and never evict entries this run used.
// `laserbench -cache DIR -exp none -cache-gc 720h` prunes without
// evaluating anything.
//
// -fault-plan SPEC (default $LASER_FAULT_PLAN) arms deterministic
// fault injection for chaos runs: seeded injected panics, errors and
// stalls per work-unit attempt plus run-cache read/write faults, all a
// pure function of (seed, point, site, attempt) so a plan replays
// identically at any parallelism. Units that fail retry with
// exponential backoff under a cost-model deadline (-unit-retries,
// -unit-deadline-floor, -unit-backoff tune the policy); units that
// exhaust the budget are quarantined — their figure renders explicit
// failure-marker rows, sibling figures render normally, and the
// process exits non-zero with a one-line failure summary. See
// EXPERIMENTS.md ("Chaos runs") and internal/faultinject for the plan
// syntax.
//
// -cpuprofile and -memprofile capture pprof profiles of the whole run;
// see EXPERIMENTS.md for the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated)")
	ascale := flag.Float64("ascale", 20, "accuracy experiment scale")
	pscale := flag.Float64("pscale", 1, "performance experiment scale")
	runs := flag.Int("runs", 3, "runs per performance data point")
	specRepair := flag.Bool("speculative-repair", true, "race repair candidates in bounded forked trials before installing (Figure 11 automatic rows)")
	faultPlan := flag.String("fault-plan", "", "deterministic fault-injection plan (default $LASER_FAULT_PLAN; see internal/faultinject)")
	unitRetries := flag.Int("unit-retries", 0, "attempts per failing work unit before quarantine (0 = default 3)")
	unitDeadlineFloor := flag.Duration("unit-deadline-floor", 0, "minimum per-unit deadline (0 = default 30s)")
	unitBackoff := flag.Duration("unit-backoff", 0, "backoff before the first unit retry, doubling per attempt (0 = default 100ms)")
	cacheDir := flag.String("cache", "", "persistent run-cache directory")
	shardSpec := flag.String("shard", "", "warm shard I/N of the selected experiments into -cache, without rendering")
	shardPartition := flag.String("shard-partition", "cost", "shard partition mode: cost (balance estimated simulation cost) or hash (by cache key)")
	gcAge := flag.Duration("cache-gc", 0, "evict cache entries not accessed for this long after the run (requires -cache; 0 disables)")
	gcBytes := flag.Int64("cache-gc-bytes", 0, "then evict least-recently-used entries until the cache fits this many bytes (0 disables)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	printCacheStats := func() {
		if *cacheDir == "" {
			return
		}
		st := experiments.CacheStats()
		fmt.Fprintf(os.Stderr, "laserbench: runcache: simulated=%d disk_hits=%d mem_hits=%d corrupt=%d write_errs=%d\n",
			st.Computes, st.DiskHits, st.MemHits, st.Corrupt, st.WriteErrs)
	}
	fail := func(err error) {
		// Flush an in-flight CPU profile before exiting (StopCPUProfile
		// is a no-op when none is active), and report the cache counters:
		// a failing run is exactly when the data is wanted.
		pprof.StopCPUProfile()
		printCacheStats()
		fmt.Fprintln(os.Stderr, "laserbench:", err)
		os.Exit(1)
	}

	want, err := parseExp(*exp)
	if err != nil {
		fail(err)
	}
	planSpec := *faultPlan
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
	runOpts := experiments.RunOptions{
		MaxAttempts:   *unitRetries,
		DeadlineFloor: *unitDeadlineFloor,
		BackoffBase:   *unitBackoff,
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *cacheDir != "" {
		if err := experiments.SetCacheDir(*cacheDir); err != nil {
			fail(err)
		}
		// The stats line is what the CI warm-run smoke test asserts
		// simulated=0 on. (Exits through fail print it there instead —
		// os.Exit skips deferred calls.)
		defer printCacheStats()
	}
	gcWanted := *gcAge > 0 || *gcBytes > 0
	if gcWanted && *cacheDir == "" {
		fail(fmt.Errorf("-cache-gc requires -cache"))
	}
	runGC := func() {
		if !gcWanted {
			return
		}
		st, err := experiments.CacheGC(*gcAge, *gcBytes)
		if err != nil {
			fail(fmt.Errorf("cache-gc: %w", err))
		}
		fmt.Fprintf(os.Stderr, "laserbench: cache-gc: evicted %d of %d entries (%.1f MiB reclaimed, %.1f MiB remain, %d pinned)\n",
			st.Evicted, st.Scanned, float64(st.EvictedBytes)/(1<<20), float64(st.RemainingBytes)/(1<<20), st.Pinned)
	}

	cfg := experiments.Config{AccuracyScale: *ascale, PerfScale: *pscale, Runs: *runs, SpeculativeRepair: *specRepair}
	all := want["all"]
	wantFn := func(e string) bool { return all || want[e] }

	if *shardSpec != "" {
		if *cacheDir == "" {
			fail(fmt.Errorf("-shard requires -cache"))
		}
		if gcWanted {
			fail(fmt.Errorf("-cache-gc must run from the assembling invocation, not a shard warm (a shard would evict its siblings' fresh entries)"))
		}
		// Parse strictly — Sscanf would accept trailing garbage like
		// "1/2x" and silently warm the wrong partition.
		is, ns, ok := strings.Cut(*shardSpec, "/")
		shard, err1 := strconv.Atoi(is)
		n, err2 := strconv.Atoi(ns)
		if !ok || err1 != nil || err2 != nil || n < 1 || shard < 0 || shard >= n {
			fail(fmt.Errorf("invalid -shard %q: want I/N with 0 <= I < N", *shardSpec))
		}
		mode := experiments.PartitionMode(*shardPartition)
		owned, total, sum, err := experiments.RunShard(cfg, wantFn, shard, n, mode, runOpts, os.Stderr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "laserbench: shard %d/%d warmed %d of %d work units into %s\n",
			shard, n, owned, total, *cacheDir)
		if sum.Failed() {
			fail(fmt.Errorf("shard FAILED: %s", sum))
		}
		return
	}

	start := time.Now()
	// Figures stream to stdout as each experiment assembles, so a
	// failure late in a long evaluation keeps everything rendered so
	// far on the terminal. Quarantined specs stream explicit failure
	// markers; the run keeps going and the exit status reports them.
	runOpts.Progress = os.Stderr
	runOpts.OnSpec = func(res experiments.SpecResult) {
		for _, a := range res.Rendered.Artifacts {
			if all || want[a.Name] || want[res.Spec.Name] {
				fmt.Println(a.Text)
			}
		}
	}
	results, sum, err := experiments.Run(cfg, wantFn, runOpts)
	if err != nil {
		fail(err)
	}
	if len(results) > 0 {
		fmt.Fprintf(os.Stderr, "laserbench: %d experiments in %.1fs\n", len(results), time.Since(start).Seconds())
	}
	runGC()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
	// Quarantined units: everything above still rendered (markers for
	// the affected specs, real artifacts for the rest) — but the process
	// exit must not claim success.
	if sum.Failed() {
		fail(fmt.Errorf("FAILED: %s", sum))
	}
	if !sum.Empty() {
		fmt.Fprintf(os.Stderr, "laserbench: %s\n", sum)
	}
}

// parseExp splits the -exp list and checks every entry against the
// registered experiments and their artifacts (plus "all" and "none"),
// so a misspelt name fails the run instead of silently selecting
// nothing.
func parseExp(list string) (map[string]bool, error) {
	known := map[string]bool{"all": true, "none": true}
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
