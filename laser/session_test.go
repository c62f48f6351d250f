package laser_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
	"repro/laser"
)

// twoPhaseFSImage builds a custom two-thread image whose single function
// falsely shares two different cache lines in two successive phases:
// phase 1 hammers per-thread slots of line A, phase 2 per-thread slots
// of line B, with a flag barrier keeping the phases overlapped across
// threads. Every access touches bytes disjoint from every other (each
// thread stores its own slot and probes a separate offset), so the cache
// line model classifies both lines as pure false sharing. Repairing
// phase 1 leaves phase 2's contention to flare up afterwards — exactly
// the situation that needs a second detect→repair epoch, with phase 2's
// post-rewrite PCs remapped to the original program for the trigger to
// identify them.
func twoPhaseFSImage(iters int64) *workload.Image {
	b := isa.NewBuilder().At("twophase.c", 10)
	b.Func("work")
	b.Li(20, 0)
	b.Label("p1").Line(12)
	b.Load(2, 0, 8, 8)  // probe [lineA slot + 8]: disjoint from all stores
	b.Store(0, 0, 2, 8) // store own slot [lineA slot + 0]
	b.AddI(20, 20, 1)
	b.BranchI(isa.Lt, 20, iters, "p1")
	// Flag barrier: publish my arrival, spin on the peer's flag. Each
	// flag lives on its own line and is written by exactly one thread.
	b.Line(18)
	b.Li(2, 1)
	b.Store(10, 0, 2, 8)
	b.Label("spin").Line(19)
	b.Load(3, 11, 0, 8)
	b.BranchI(isa.Eq, 3, 0, "spin")
	b.Li(20, 0)
	b.Label("p2").Line(22)
	b.Load(2, 1, 8, 8)
	b.Store(1, 0, 2, 8)
	b.AddI(20, 20, 1)
	b.BranchI(isa.Lt, 20, iters, "p2")
	b.Halt()
	prog := b.Build()

	lineA, lineB := mem.HeapBase+0x1000, mem.HeapBase+0x2000
	flag0, flag1 := mem.HeapBase+0x3000, mem.HeapBase+0x3040
	specs := []machine.ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{
			0: int64(lineA), 1: int64(lineB), 10: int64(flag0), 11: int64(flag1)}},
		{Entry: 0, Regs: map[isa.Reg]int64{
			0: int64(lineA + 16), 1: int64(lineB + 16), 10: int64(flag1), 11: int64(flag0)}},
	}
	return &workload.Image{Prog: prog, Specs: specs, Threads: 2}
}

// TestSessionMultiEpochRepair is the acceptance test for the multi-epoch
// redesign: one session runs two detect→repair epochs, and the records
// sampled after each rewrite are remapped to original-program PCs — the
// second repair can only find phase 2's instructions if remapping works,
// and the final report must attribute both phases to their original
// source lines.
func TestSessionMultiEpochRepair(t *testing.T) {
	img := twoPhaseFSImage(150_000)
	var applied []laser.RepairApplied
	var epochEnds []laser.EpochEnd
	s, err := laser.Attach(img,
		laser.WithMaxEpochs(4),
		laser.WithObserver(func(e laser.Event) {
			switch ev := e.(type) {
			case laser.RepairApplied:
				applied = append(applied, ev)
			case laser.EpochEnd:
				epochEnds = append(epochEnds, ev)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if len(applied) < 2 {
		t.Fatalf("got %d repairs, want >= 2 (multi-epoch re-arm failed)", len(applied))
	}
	if applied[0].Epoch() == applied[1].Epoch() {
		t.Errorf("both repairs in epoch %d, want distinct epochs", applied[0].Epoch())
	}
	if len(res.Epochs) != len(applied)+1 {
		t.Errorf("Result.Epochs has %d entries, want %d (one per repair plus the final epoch)",
			len(res.Epochs), len(applied)+1)
	}
	for i, ep := range res.Epochs {
		if ep.Epoch != i {
			t.Errorf("epoch %d reported index %d", i, ep.Epoch)
		}
		wantRepaired := i < len(applied)
		if ep.Repaired != wantRepaired {
			t.Errorf("epoch %d Repaired = %v, want %v", i, ep.Repaired, wantRepaired)
		}
	}
	if len(epochEnds) != len(res.Epochs) {
		t.Errorf("%d EpochEnd events, want %d", len(epochEnds), len(res.Epochs))
	}

	// Post-repair attribution: the cumulative report covers both phases,
	// keyed to the original source lines even though phase 2's samples
	// arrived with rewritten-program PCs.
	byLine := map[int]bool{}
	for _, l := range res.Report.Lines {
		if l.Loc.File == "twophase.c" && l.FS > 0 {
			byLine[l.Loc.Line] = true
		}
	}
	if !byLine[12] || !byLine[22] {
		t.Errorf("false sharing not attributed to both original lines 12 and 22:\n%s",
			res.Report.Render())
	}

	// The second epoch's windowed report sees only phase 2 (post-repair
	// samples, original PCs): line 22 must appear, line 12 must not
	// dominate it.
	second := res.Epochs[1].Report
	found22 := false
	for _, l := range second.Lines {
		if l.Loc.File == "twophase.c" && l.Loc.Line == 22 {
			found22 = true
		}
	}
	if !found22 {
		t.Errorf("epoch 1 report missing original line 22:\n%s", second.Render())
	}

	// Both repairs must actually help: the repaired run beats native.
	nat, err := laser.RunNative(twoPhaseFSImage(150_000), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles >= nat.Cycles {
		t.Errorf("two-epoch repair (%d cycles) not faster than native (%d)",
			res.Stats.Cycles, nat.Cycles)
	}
}

// TestSessionEventDeterminism: identical image, options and seed produce
// an identical event sequence and report, step for step.
func TestSessionEventDeterminism(t *testing.T) {
	run := func() (events []string, report string) {
		w, _ := workload.Get("linear_regression")
		img := w.Build(workload.Options{Scale: 0.6, HeapBias: laser.AttachBias})
		s, err := laser.Attach(img,
			laser.WithSeed(7),
			laser.WithObserver(func(e laser.Event) {
				events = append(events, fmt.Sprint(e))
			}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return events, res.Report.Render()
	}
	ev1, rep1 := run()
	ev2, rep2 := run()
	if len(ev1) == 0 {
		t.Fatal("no events observed")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, ev1[i], ev2[i])
		}
	}
	if rep1 != rep2 {
		t.Errorf("reports differ:\n%s\nvs\n%s", rep1, rep2)
	}
}

// TestSessionEventsChannel: the channel delivers the same sequence the
// observers see and closes on Close.
func TestSessionEventsChannel(t *testing.T) {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.4, HeapBias: laser.AttachBias})
	var observed []string
	s, err := laser.Attach(img, laser.WithObserver(func(e laser.Event) {
		observed = append(observed, fmt.Sprint(e))
	}))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	drained := make(chan struct{})
	events := s.Events()
	go func() {
		defer close(drained)
		for e := range events {
			streamed = append(streamed, fmt.Sprint(e))
		}
	}()
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	<-drained
	if len(streamed) == 0 || len(streamed) != len(observed) {
		t.Fatalf("channel delivered %d events, observer saw %d", len(streamed), len(observed))
	}
	for i := range streamed {
		if streamed[i] != observed[i] {
			t.Fatalf("event %d differs between channel and observer", i)
		}
	}
}

// TestOptionValidation: option constructors reject invalid values with
// descriptive errors instead of coercing them.
func TestOptionValidation(t *testing.T) {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.1})
	for _, tc := range []struct {
		name string
		opt  laser.Option
		want string
	}{
		{"cores", laser.WithCores(-1), "core count"},
		{"zero cores", laser.WithCores(0), "core count"},
		{"sav", laser.WithSAV(0), "sample-after"},
		{"poll", laser.WithPollInterval(0), "interval"},
		{"epochs", laser.WithMaxEpochs(0), "epoch"},
		{"threshold", laser.WithRateThreshold(-3), "threshold"},
		{"repair threshold", laser.WithRepairRateThreshold(0), "threshold"},
		{"observer", laser.WithObserver(nil), "observer"},
	} {
		if _, err := laser.Attach(img, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestConfigValidate: Validate rejects invalid values, zeros included,
// and never changes the configuration it checks; DefaultConfig (whose
// MaxEpochs 0 means DefaultMaxEpochs) is valid.
func TestConfigValidate(t *testing.T) {
	if err := laser.DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*laser.Config)
	}{
		{"zero Cores", func(c *laser.Config) { c.Cores = 0 }},
		{"negative Cores", func(c *laser.Config) { c.Cores = -2 }},
		{"zero PollInterval", func(c *laser.Config) { c.PollInterval = 0 }},
		{"zero BufferCap", func(c *laser.Config) { c.PEBS.BufferCap = 0 }},
		{"zero SAV", func(c *laser.Config) { c.PEBS.SAV = 0 }},
		{"negative MaxEpochs", func(c *laser.Config) { c.MaxEpochs = -1 }},
	} {
		bad := laser.DefaultConfig()
		tc.mutate(&bad)
		want := bad
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if !reflect.DeepEqual(bad, want) {
			t.Errorf("%s: Validate changed the configuration: %+v", tc.name, bad)
		}
	}

	// Attach validates the configuration WithConfig carries.
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.1, HeapBias: laser.AttachBias})
	bad := laser.DefaultConfig()
	bad.MaxEpochs = -1
	if _, err := laser.Attach(img, laser.WithConfig(bad)); err == nil {
		t.Error("Attach accepted an invalid Config")
	}
}

// TestSessionSnapshotMidRun: reports are available at any moment, and
// offline re-thresholding applies mid-run.
func TestSessionSnapshotMidRun(t *testing.T) {
	w, _ := workload.Get("linear_regression")
	img := w.Build(workload.Options{Scale: 0.6, HeapBias: laser.AttachBias})
	s, err := laser.Attach(img, laser.WithRepair(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunFor(8_000_000); err != nil {
		t.Fatal(err)
	}
	all := s.SnapshotAt(0)
	def := s.Snapshot()
	if len(all.Lines) == 0 {
		t.Fatal("mid-run snapshot empty at threshold 0")
	}
	if len(def.Lines) > len(all.Lines) {
		t.Errorf("default threshold reports more lines (%d) than threshold 0 (%d)",
			len(def.Lines), len(all.Lines))
	}
	if ep := s.EpochSnapshot(); len(ep.Lines) != len(all.Lines) {
		// Epoch 0's window is the whole run so far; at threshold equal to
		// the default the line sets can differ, but the epoch snapshot
		// must at least see the same observation window.
		if ep.Seconds <= 0 {
			t.Errorf("epoch snapshot window %.3f, want > 0", ep.Seconds)
		}
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionContextCancel: Run honours context cancellation and returns
// the pipeline for post-mortem inspection.
func TestSessionContextCancel(t *testing.T) {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.4, HeapBias: laser.AttachBias})
	s, err := laser.Attach(img)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Pipeline == nil {
		t.Error("cancelled Run returned no partial result")
	}
	if _, err := s.Result(); !errors.Is(err, laser.ErrRunning) {
		t.Errorf("Result before completion: err = %v, want ErrRunning", err)
	}
}

// TestSessionClose: Close is idempotent, stops stepping, and closes the
// event channel.
func TestSessionClose(t *testing.T) {
	w, _ := workload.Get("histogram'")
	img := w.Build(workload.Options{Scale: 0.2, HeapBias: laser.AttachBias})
	s, err := laser.Attach(img)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); !errors.Is(err, laser.ErrClosed) {
		t.Errorf("Step after Close: err = %v, want ErrClosed", err)
	}
	if _, ok := <-events; ok {
		t.Error("event channel still open after Close")
	}

	// Events first requested after Close must yield a closed channel,
	// not one that blocks forever.
	s2, err := laser.Attach(w.Build(workload.Options{Scale: 0.2, HeapBias: laser.AttachBias}))
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if _, ok := <-s2.Events(); ok {
		t.Error("Events() after Close returned an open channel")
	}
}
