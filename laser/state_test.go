package laser_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/laser"
)

// pickStep derives a deterministic pseudo-random capture point in
// [0, steps) from the test identity, so the sweep exercises different
// boundaries per workload without flaking across runs.
func pickStep(name string, par, steps int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	h.Write([]byte{byte(par)})
	return int(h.Sum32() % uint32(steps))
}

func encodeState(t *testing.T, st *laser.SessionState) []byte {
	t.Helper()
	b, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveToDone steps a session to completion and returns the number of
// Step calls it took.
func driveToDone(t *testing.T, s *laser.Session) int {
	t.Helper()
	steps := 0
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			return steps
		}
	}
}

// roundTrip runs the capture/restore experiment for one image builder:
// an uninterrupted twin A records the reference event stream and result;
// twin B is stopped at the chosen Step boundary, snapshotted through a
// full Encode/Decode cycle, discarded, and rebuilt with RestoreSession,
// which then runs to completion. The restored session must produce the
// missing event-stream suffix byte for byte, the identical result, and a
// final snapshot whose encoding matches twin A's.
func roundTrip(t *testing.T, name string, par, captureAt int, build func() *workload.Image, opts func(obs func(laser.Event)) []laser.Option) {
	t.Helper()

	var refEvents []string
	sa, err := laser.Attach(build(), opts(func(e laser.Event) {
		refEvents = append(refEvents, fmt.Sprint(e))
	})...)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	steps := driveToDone(t, sa)
	resA, err := sa.Result()
	if err != nil {
		t.Fatal(err)
	}
	finalA := encodeState(t, sa.CaptureState())

	if captureAt < 0 {
		captureAt = pickStep(name, par, steps)
	}
	if captureAt >= steps {
		captureAt = steps - 1
	}

	var preEvents []string
	sb, err := laser.Attach(build(), opts(func(e laser.Event) {
		preEvents = append(preEvents, fmt.Sprint(e))
	})...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < captureAt; i++ {
		done, err := sb.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("twin finished after %d steps, reference took %d", i+1, steps)
		}
	}
	blob := encodeState(t, sb.CaptureState())
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := laser.DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	var postEvents []string
	sr, err := laser.RestoreSession(build(), st, opts(func(e laser.Event) {
		postEvents = append(postEvents, fmt.Sprint(e))
	})...)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	driveToDone(t, sr)
	resR, err := sr.Result()
	if err != nil {
		t.Fatal(err)
	}
	finalR := encodeState(t, sr.CaptureState())

	got := append(append([]string(nil), preEvents...), postEvents...)
	if len(got) != len(refEvents) {
		t.Fatalf("capture@%d/%d: event counts differ: %d (pre %d + post %d) vs %d reference",
			captureAt, steps, len(got), len(preEvents), len(postEvents), len(refEvents))
	}
	for i := range got {
		if got[i] != refEvents[i] {
			t.Fatalf("capture@%d/%d: event %d differs:\n  restored:  %s\n  reference: %s",
				captureAt, steps, i, got[i], refEvents[i])
		}
	}
	if a, r := resA.Report.Render(), resR.Report.Render(); a != r {
		t.Fatalf("capture@%d/%d: rendered reports differ:\n%s\nvs\n%s", captureAt, steps, a, r)
	}
	if !reflect.DeepEqual(resA.Stats, resR.Stats) {
		t.Fatalf("capture@%d/%d: stats diverged:\n%+v\nvs\n%+v", captureAt, steps, resA.Stats, resR.Stats)
	}
	if resA.DriverStats != resR.DriverStats || resA.PEBSStats != resR.PEBSStats {
		t.Fatalf("capture@%d/%d: monitoring stats diverged", captureAt, steps)
	}
	if resA.RepairApplied != resR.RepairApplied || resA.DetectorCycle != resR.DetectorCycle {
		t.Fatalf("capture@%d/%d: repair/detector outcome diverged", captureAt, steps)
	}
	if !reflect.DeepEqual(resA.Epochs, resR.Epochs) {
		t.Fatalf("capture@%d/%d: epoch reports diverged", captureAt, steps)
	}
	if !bytes.Equal(finalA, finalR) {
		t.Fatalf("capture@%d/%d: final snapshots differ (%d vs %d bytes)",
			captureAt, steps, len(finalA), len(finalR))
	}
}

// TestSessionSnapshotRoundTripAllWorkloads captures every stock workload
// at a randomized Step boundary, under both the serial scheduler and the
// intra-run parallel engine, and demands restore transparency: the
// restored twin's remaining event stream, final result, rendered report
// and final snapshot encoding are byte-identical to an uninterrupted
// twin's.
func TestSessionSnapshotRoundTripAllWorkloads(t *testing.T) {
	scale := 0.15
	if testing.Short() {
		scale = 0.06
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, par := range []int{1, 4} {
				par := par
				t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
					build := func() *workload.Image {
						return w.Build(workload.Options{Scale: scale, HeapBias: laser.AttachBias})
					}
					opts := func(obs func(laser.Event)) []laser.Option {
						return []laser.Option{
							laser.WithSeed(11),
							laser.WithMaxEpochs(2),
							laser.WithIntraRunParallelism(par),
							laser.WithObserver(obs),
						}
					}
					roundTrip(t, w.Name, par, -1, build, opts)
				})
			}
		})
	}
}

// TestSessionSnapshotRoundTripAfterRepair pins the hard part of the
// restore path: a session captured after an applied repair, where the
// controller holds a rewritten program, the pipeline a PC remap, the
// session a coverage set, and the machine threads run at post-rewrite
// PCs. The two-phase image reliably produces a repair in epoch 1 and
// fresh contention afterwards, so the capture boundary lands between the
// two repairs.
func TestSessionSnapshotRoundTripAfterRepair(t *testing.T) {
	img := twoPhaseFSImage(150_000)
	opts := func(obs func(laser.Event)) []laser.Option {
		return []laser.Option{
			laser.WithMaxEpochs(4),
			laser.WithObserver(obs),
		}
	}
	build := func() *workload.Image { return img }

	// Find the first Step boundary at which a repair has been applied.
	repairs := 0
	firstRepairStep := -1
	probe, err := laser.Attach(img, opts(func(e laser.Event) {
		if _, ok := e.(laser.RepairApplied); ok {
			repairs++
		}
	})...)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if firstRepairStep < 0 && repairs > 0 {
			firstRepairStep = steps
		}
		if done {
			break
		}
	}
	probe.Close()
	if repairs < 2 {
		t.Fatalf("expected at least two repairs, got %d", repairs)
	}
	if firstRepairStep < 0 || firstRepairStep >= steps {
		t.Fatalf("no mid-run repair boundary (first repair at step %d of %d)", firstRepairStep, steps)
	}

	roundTrip(t, "twophase", 1, firstRepairStep, build, opts)
}

// TestSessionSnapshotRoundTripDone: a snapshot of a finished session
// restores with its Result intact.
func TestSessionSnapshotRoundTripDone(t *testing.T) {
	w, _ := workload.Get("linear_regression")
	img := w.Build(workload.Options{Scale: 0.3, HeapBias: laser.AttachBias})
	s, err := laser.Attach(img, laser.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	blob := encodeState(t, s.CaptureState())
	st, err := laser.DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := laser.RestoreSession(img, st, laser.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	done, err := sr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("restored finished session is not done")
	}
	resR, err := sr.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Render() != resR.Report.Render() {
		t.Fatal("restored result report differs")
	}
	if !reflect.DeepEqual(res.Stats, resR.Stats) {
		t.Fatal("restored result stats differ")
	}
	if res.Seconds != resR.Seconds || res.DriverStats != resR.DriverStats || res.PEBSStats != resR.PEBSStats {
		t.Fatal("restored result scalars differ")
	}
}

// TestRestoreSessionRefusals: a snapshot must not restore onto a
// divergent configuration or a different execution engine.
func TestRestoreSessionRefusals(t *testing.T) {
	w, _ := workload.Get("linear_regression")
	img := w.Build(workload.Options{Scale: 0.2, HeapBias: laser.AttachBias})
	s, err := laser.Attach(img, laser.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	st := s.CaptureState()

	if _, err := laser.RestoreSession(img, st, laser.WithSeed(4)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("expected fingerprint refusal, got %v", err)
	}
	// Post-repair monitoring decides what the detector sees after a
	// repair, so a restore that flips it is a different simulation.
	if _, err := laser.RestoreSession(img, st, laser.WithSeed(3), laser.WithPostRepairMonitoring(false)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("expected fingerprint refusal for flipped post-repair monitoring, got %v", err)
	}
	// IntraRunParallelism is excluded from the fingerprint (it must not
	// change results), but the engine's first-touch tables are not
	// portable across engine kinds, so flipping serial<->parallel is
	// refused separately.
	if _, err := laser.RestoreSession(img, st, laser.WithSeed(3), laser.WithIntraRunParallelism(4)); err == nil ||
		!strings.Contains(err.Error(), "parallel") {
		t.Fatalf("expected engine-kind refusal, got %v", err)
	}

	good, err := laser.RestoreSession(img, st, laser.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	good.Close()
}
