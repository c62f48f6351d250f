// Package repro is a from-scratch Go reproduction of the LASER system
// ("LASER: Light, Accurate Sharing dEtection and Repair", HPCA 2016).
//
// LASER detects cache contention — both true sharing and false sharing —
// using hardware HITM coherence-event records, and repairs false sharing
// online with a software store buffer injected by binary rewriting.
//
// Because the paper depends on Haswell PEBS hardware and Pin-style native
// binary rewriting, this module reproduces the system on a simulated
// substrate: a synthetic ISA, a MESI multicore machine, a PEBS model with
// the paper's measured imprecision, a kernel-driver model, the full
// LASERDETECT/LASERREPAIR pipelines, VTune- and Sheriff-like baselines, and
// the Phoenix/Parsec/Splash2x workloads as synthetic programs.
//
// The public API is package laser's Session: laser.Attach wires the
// paper's Figure 8 three-process architecture around a workload image
// and hands back a long-lived, observable monitor — functional options
// configure it, Step/RunFor/Run/Wait drive it (context-aware), Snapshot
// reports at any moment, Events streams typed monitoring events, and
// detection runs multiple detect→repair epochs by remapping
// post-rewrite PCs back to the original program. Attach (or
// RestoreSession, from a snapshot) is the only way to build a session;
// the paper's one-shot pass is a session pinned with options.
//
// Start with package laser, DESIGN.md (system inventory and the Session
// architecture) and EXPERIMENTS.md (paper-versus-measured results). The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation.
//
// # Performance
//
// The simulated machine is tuned for interpreter throughput: the
// coherence directory and the HITM-by-PC ground truth are flat
// open-addressed tables, backing memory is a two-level page index behind
// a two-entry page cache, and the scheduler retires batches of
// instructions per core (running ahead through provably thread-local
// instructions) while reproducing the serial lowest-clock-first schedule
// bit for bit. BenchmarkMachineStep, BenchmarkCoherenceAccess and
// BenchmarkMemoryLoadStore (in internal/machine and internal/coherence)
// measure the per-instruction, per-directory-access and per-load/store
// hot paths; the load/store path and the Session's streaming Step both
// run at 0 allocs/op.
//
// A single simulated machine can also execute on several host threads:
// the intra-run parallel engine (machine.Config.Parallelism,
// laser.WithIntraRunParallelism) runs each core's thread-private
// instruction stretches concurrently — privacy comes from the workloads'
// declared thread-private allocations plus the thread stacks, checked
// against every access's effective address at run time — and retires
// every globally-visible event
// serially in the exact serial-schedule order, so results are
// byte-identical to the serial engine at any worker count. See
// DESIGN.md, "The two execution engines".
//
// Both engines execute a pre-decoded form of the program, built once per
// program generation (machine.New and every hot-swap). See DESIGN.md,
// "The decoded program".
//
// The experiment harness in internal/experiments is a registry of
// declarative experiment specs: each figure's runner fans its
// simulations out across all host cores and reads them through an
// in-process memo, which simulates each one once per process however
// many figures share it and remembers its failures (see DESIGN.md,
// "The experiment registry"). Each simulation runs on the serial engine.
// LASER_BENCH_PARALLEL selects the pool worker count (default
// GOMAXPROCS; 1 recovers the serial harness); results are assembled in
// index order, so every rendered table and figure is byte-identical at
// any parallelism. LASER_BENCH_ASCALE, LASER_BENCH_PSCALE
// and LASER_BENCH_RUNS scale the benchmark suite in bench_test.go.
package repro
