package main

// In-process session workloads: one client attaches a laser.Session
// around one of the paper's benchmarks, steps it to completion and
// renders the contention report, in a closed loop. Each session is
// checked against the reference run of its PEBS seed — the simulation is
// deterministic, so the event stream, statistics and report must repeat
// byte for byte — and each reference is checked against what the
// workload is known to do.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"repro/internal/bugdb"
	"repro/internal/core"
	"repro/internal/serverd"
	"repro/internal/workload"
	"repro/laser"
)

// sessionSpec is one in-process workload.
type sessionSpec struct {
	workload    string
	scale       float64
	speculative bool // race repair candidates when the trigger fires
	workers     int  // intra-run parallel engine workers; 0 runs the serial engine
	// check validates a reference outcome; native is the instruction
	// count of an unmonitored run of the same image.
	check func(o *sessionOutcome, native uint64) error
}

// sessionOutcome is what one session produced.
type sessionOutcome struct {
	digest   [sha256.Size]byte
	instr    uint64
	polls    int
	events   int
	records  uint64
	repaired bool
	winner   string // speculative trial winner, "" without trials
	trials   int
	report   *core.Report
	stepTime time.Duration
}

const (
	// pebsSeeds is how many distinct PEBS seeds (and reference runs) one
	// run cycles through.
	pebsSeeds = 4
	// setupBatches batches of setupBatch back-to-back set-ups are timed
	// before the window and again after it.
	setupBatches = 5
	setupBatch   = 32
)

// aluSpec: swaptions is private, ALU-heavy code with no known bug, so
// LASER must leave it alone and the program must retire exactly the
// instructions it retires unmonitored. Its private segments run on the
// intra-run parallel engine, one worker per processor of the reference
// host. On the serial engine the one busy thread shares its core with
// whatever else the host runs, and a session takes either about 8 ms or
// about 14 ms depending on the moment; with both processors busy in the
// session, the time is steady.
var aluSpec = sessionSpec{
	workload: "swaptions",
	scale:    1,
	workers:  2,
	check: func(o *sessionOutcome, native uint64) error {
		if o.repaired {
			return errors.New("repair applied to a workload without false sharing")
		}
		if o.instr != native {
			return fmt.Errorf("monitored run retired %d instructions, unmonitored %d", o.instr, native)
		}
		return nil
	},
}

// fsRepairSpec: histogram' keeps unpadded per-thread counters in one
// cache line; LASER must report the known false-sharing lines, race the
// repair candidates in forked trials and install the winning rewrite
// online.
var fsRepairSpec = sessionSpec{
	workload:    "histogram'",
	scale:       0.15,
	speculative: true,
	check: func(o *sessionOutcome, _ uint64) error {
		if !o.repaired {
			return fmt.Errorf("false sharing not repaired (trial winner %q)", o.winner)
		}
		for _, l := range o.report.Lines {
			if bugdb.IsBugLine("histogram'", l.Loc) {
				return nil
			}
		}
		return errors.New("report misses the known false-sharing lines")
	},
}

func runALU(ctx context.Context, r *run) error      { return runSessions(ctx, r, aluSpec) }
func runFSRepair(ctx context.Context, r *run) error { return runSessions(ctx, r, fsRepairSpec) }

// runSessions runs the closed loop for spec.
func runSessions(ctx context.Context, r *run, spec sessionSpec) error {
	w, ok := workload.Get(spec.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.workload)
	}
	native, err := laser.RunNative(w.Build(buildOptions(spec)), laser.DefaultConfig().Cores)
	if err != nil {
		return fmt.Errorf("unmonitored run: %w", err)
	}

	// References, one per PEBS seed; they also warm the process up.
	seeds := make([]int64, pebsSeeds)
	refs := make([]*sessionOutcome, pebsSeeds)
	for i := range seeds {
		seeds[i] = r.rng.Int63()
		ref, err := runSession(w, spec, seeds[i], r, -1-int64(i))
		if err != nil {
			return fmt.Errorf("reference session: %w", err)
		}
		if err := spec.check(ref, native.Instructions); err != nil {
			return fmt.Errorf("reference session (seed %d): %w", seeds[i], err)
		}
		refs[i] = ref
	}

	// next runs session id on a random PEBS seed and checks it against
	// that seed's reference; it returns nil for a failed session.
	next := func(id int64) *sessionOutcome {
		r.attempted++
		k := r.rng.Intn(pebsSeeds)
		o, err := runSession(w, spec, seeds[k], r, id)
		switch {
		case err != nil:
			r.fail("session %d: %v", id, err)
		case o.digest != refs[k].digest:
			r.fail("session %d (seed %d): output differs from the reference run", id, seeds[k])
		default:
			return o
		}
		return nil
	}

	// Warm-up, untimed and unrecorded (negative ids).
	for id, end := int64(-1-pebsSeeds), time.Now().Add(warmup); time.Now().Before(end); id-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		next(id)
	}
	if err := measureSetup(w, spec, seeds[0], r); err != nil {
		return err
	}

	var polls, events, records, repairs, trials []float64
	var stepTime time.Duration
	start := time.Now()
	deadline := start.Add(r.window)
	for id := int64(0); time.Now().Before(deadline); id++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		o := next(id)
		if o == nil {
			continue
		}
		r.instr += o.instr
		stepTime += o.stepTime
		polls = append(polls, float64(o.polls))
		events = append(events, float64(o.events))
		records = append(records, float64(o.records))
		trials = append(trials, float64(o.trials))
		if o.repaired {
			repairs = append(repairs, 1)
		} else {
			repairs = append(repairs, 0)
		}
	}
	r.wall = time.Since(start)
	if err := measureSetup(w, spec, seeds[0], r); err != nil {
		return err
	}

	if r.tr.on {
		r.layer["build_ms"] = ms(r.tr.durations("build").median())
		r.layer["attach_ms"] = ms(r.tr.durations("attach").median())
		r.layer["step_us"] = us(r.tr.durations("step").median())
		r.layer["report_ms"] = ms(r.tr.durations("report").median())
		if r.instr > 0 {
			r.layer["step_ns_per_instr"] = float64(stepTime) / float64(r.instr)
			r.layer["instr_per_session"] = float64(r.instr) / float64(len(polls))
		}
		r.layer["polls_per_session"] = mean(polls)
		r.layer["events_per_session"] = mean(events)
		r.layer["pebs_records_per_session"] = mean(records)
		r.layer["repairs_per_session"] = mean(repairs)
		r.layer["trials_per_session"] = mean(trials)
	}
	return nil
}

func buildOptions(spec sessionSpec) workload.Options {
	return workload.Options{Scale: spec.scale, HeapBias: laser.AttachBias}
}

// sessionOptions are the Attach options of every session of spec.
func sessionOptions(spec sessionSpec, seed int64) []laser.Option {
	return []laser.Option{
		laser.WithSeed(seed),
		// Scaled-down inputs keep the paper's trigger cadence per unit of
		// work, as the laser command does.
		laser.WithAutoPollInterval(spec.scale),
		laser.WithSpeculativeRepair(spec.speculative),
		laser.WithIntraRunParallelism(spec.workers),
	}
}

// measureSetup times set-up — the image build and laser.Attach — apart
// from the sessions, setupBatches times, each the mean of setupBatch
// set-ups run back to back. A session allocates enough for a few
// collections, in the same places every time, so whether a session's
// Attach overlaps a collection is decided by the run, not by chance:
// the per-session set-up median of fs_repair jumps between about 0.35
// and 0.75 ms from run to run. A batch takes its share of collections.
func measureSetup(w *workload.Workload, spec sessionSpec, seed int64, r *run) error {
	for b := 0; b < setupBatches; b++ {
		var total time.Duration
		for i := 0; i < setupBatch; i++ {
			t0 := time.Now()
			s, err := laser.Attach(w.Build(buildOptions(spec)), sessionOptions(spec, seed)...)
			if err != nil {
				return err
			}
			total += time.Since(t0)
			s.Close()
		}
		r.setup = append(r.setup, total/setupBatch)
	}
	return nil
}

// runSession runs one session to completion: build the image, attach,
// step until done, render the report. Measured sessions (id >= 0) add
// their latency to r; every session records spans.
func runSession(w *workload.Workload, spec sessionSpec, seed int64, r *run, id int64) (*sessionOutcome, error) {
	start := time.Now()
	img := w.Build(buildOptions(spec))
	built := time.Now()
	r.tr.record("build", "session", id, start, built)

	var evs []laser.Event
	opts := append(sessionOptions(spec, seed), laser.WithObserver(func(e laser.Event) { evs = append(evs, e) }))
	s, err := laser.Attach(img, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	attached := time.Now()
	r.tr.record("attach", "session", id, built, attached)

	o := &sessionOutcome{}
	for {
		t0 := time.Now()
		done, err := s.Step()
		t1 := time.Now()
		r.tr.record("step", "session", id, t0, t1)
		o.stepTime += t1.Sub(t0)
		o.polls++
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rendered := res.Report.Render()
	end := time.Now()
	r.tr.record("report", "session", id, t0, end)
	r.tr.record("session", "", id, start, end)
	if id >= 0 {
		r.sessions = append(r.sessions, end.Sub(start))
	}

	h := sha256.New()
	h.Write(serverd.EncodeStream(evs))
	fmt.Fprintf(h, "cycles=%d instr=%d hitm=%d repaired=%v winner=%s\n",
		res.Stats.Cycles, res.Stats.Instructions, res.Stats.HITMs(), res.RepairApplied, res.RepairWinner)
	h.Write([]byte(rendered))
	copy(o.digest[:], h.Sum(nil))
	o.instr = res.Stats.Instructions
	o.events = len(evs)
	o.records = res.PEBSStats.Records
	o.repaired = res.RepairApplied
	o.winner = res.RepairWinner
	o.trials = len(res.RepairTrials)
	o.report = res.Report
	return o, nil
}
