package coherence

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// TestFlatTableMatchesPerLineModels exercises the open-addressed directory
// against a reference built from per-line independence: MESI state is
// strictly per line, so a model tracking many lines must classify each
// access exactly like a dedicated single-line model fed the same per-line
// subsequence. The combined model is additionally stressed with growth
// (thousands of extra lines) and Invalidate tombstones; any probe-chain or
// rehash bug shows up as a classification mismatch.
func TestFlatTableMatchesPerLineModels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const lines = 24
	combined := NewModel(4)
	refs := make([]*Model, lines)
	for i := range refs {
		refs[i] = NewModel(4)
	}
	addrOf := func(l int) mem.Addr {
		return mem.HeapBase + mem.Addr(l)*mem.LineSize
	}
	fill := 0
	for step := 0; step < 20000; step++ {
		l := rng.Intn(lines)
		core := rng.Intn(4)
		write := rng.Intn(2) == 0
		a := addrOf(l) + mem.Addr(rng.Intn(mem.LineSize))
		got := combined.Access(core, a, write)
		want := refs[l].Access(core, a, write)
		if got != want {
			t.Fatalf("step %d line %d core %d write %v: combined %+v, reference %+v",
				step, l, core, write, got, want)
		}
		switch rng.Intn(16) {
		case 0:
			// Force table churn: a burst of fresh lines far away.
			for i := 0; i < 64; i++ {
				fill++
				combined.Access(fill%4, mem.StackBase+mem.Addr(fill)*mem.LineSize, true)
			}
		case 1:
			// Tombstone a tracked line in both models.
			combined.Invalidate(addrOf(l))
			refs[l].Invalidate(addrOf(l))
		}
		if step%1000 == 0 {
			if err := combined.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := combined.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if combined.Lines() < lines {
		t.Errorf("directory tracks %d lines, want >= %d", combined.Lines(), lines)
	}
}

// TestResetReusesBacking checks Reset semantics: state and counts clear,
// capacity is retained, and the model is immediately reusable.
func TestResetReusesBacking(t *testing.T) {
	m := NewModel(2)
	for i := 0; i < 5000; i++ {
		m.Access(i%2, mem.HeapBase+mem.Addr(i)*mem.LineSize, true)
	}
	capBefore := len(m.slots)
	m.Reset()
	if len(m.slots) != capBefore {
		t.Errorf("Reset reallocated: cap %d -> %d", capBefore, len(m.slots))
	}
	if m.Lines() != 0 || m.HITMs() != 0 {
		t.Errorf("Reset left state: lines=%d hitms=%d", m.Lines(), m.HITMs())
	}
	if r := m.Access(0, mem.HeapBase, false); r.Result != MissMemory {
		t.Errorf("first access after Reset = %v, want MissMemory", r.Result)
	}
}

// TestInvalidateTombstoneProbe pins the probe-chain-through-tombstone
// behaviour: colliding lines must remain reachable after one of them is
// invalidated, and re-inserting reuses the tombstone slot.
func TestInvalidateTombstoneProbe(t *testing.T) {
	m := NewModel(2)
	// Enough lines that some share probe chains.
	base := mem.Addr(0x4000_0000)
	for i := 0; i < 3000; i++ {
		m.Access(0, base+mem.Addr(i)*mem.LineSize, true)
	}
	for i := 0; i < 3000; i += 2 {
		m.Invalidate(base + mem.Addr(i)*mem.LineSize)
	}
	// Surviving odd lines must still be present (local hit for core 0).
	for i := 1; i < 3000; i += 2 {
		if r := m.Access(0, base+mem.Addr(i)*mem.LineSize, true); r.Result != HitLocal {
			t.Fatalf("line %d after neighbour invalidation = %v, want HitLocal", i, r.Result)
		}
	}
	// Invalidated even lines re-enter as cold misses.
	if r := m.Access(1, base, true); r.Result != MissMemory {
		t.Errorf("re-inserted line = %v, want MissMemory", r.Result)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrownDirectoryMatchesPresized: the table's start size is
// unobservable. One access trace — a hot set of contended lines, a
// stream of fresh lines that forces repeated growth, and Invalidate
// tombstones — run through a directory grown from minTableSize and one
// presized to 1024 slots gives the same outcomes, snapshot, counters and
// invariant check.
func TestGrownDirectoryMatchesPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grown, presized := newModel(4, minTableSize), newModel(4, 1024)
	for step := 0; step < 30000; step++ {
		var a mem.Addr
		if rng.Intn(4) == 0 {
			a = mem.StackBase + mem.Addr(step)*mem.LineSize // a fresh line
		} else {
			a = mem.HeapBase + mem.Addr(rng.Intn(48))*mem.LineSize + mem.Addr(rng.Intn(mem.LineSize))
		}
		if rng.Intn(32) == 0 {
			grown.Invalidate(a)
			presized.Invalidate(a)
			continue
		}
		core, write := rng.Intn(4), rng.Intn(2) == 0
		if g, p := grown.Access(core, a, write), presized.Access(core, a, write); g != p {
			t.Fatalf("step %d: grown %+v, presized %+v", step, g, p)
		}
	}
	if len(grown.slots) <= minTableSize {
		t.Fatalf("the trace never grew the table (%d slots)", len(grown.slots))
	}
	if !reflect.DeepEqual(grown.CaptureState(), presized.CaptureState()) {
		t.Error("CaptureState differs")
	}
	if grown.Counts != presized.Counts {
		t.Errorf("Counts %v, presized %v", grown.Counts, presized.Counts)
	}
	ge, pe := grown.CheckInvariants(), presized.CheckInvariants()
	if ge != nil || pe != nil {
		t.Errorf("CheckInvariants: grown %v, presized %v", ge, pe)
	}
}

// Restoring a large snapshot into a fresh directory sizes the table
// once, up front, instead of regrowing it by doubling as lines arrive,
// and the restored directory is the source's.
func TestRestoreSizesTableOnce(t *testing.T) {
	src := NewModel(4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		a := mem.HeapBase + mem.Addr(i)*mem.LineSize
		src.Access(rng.Intn(4), a, rng.Intn(2) == 0)
		src.Access(rng.Intn(4), a, rng.Intn(2) == 0)
	}
	st := src.CaptureState()
	if len(st.Entries) != 3000 {
		t.Fatalf("snapshot holds %d lines, want 3000", len(st.Entries))
	}

	dst := NewModel(4)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.CaptureState(), st) {
		t.Error("restored CaptureState differs from the source's")
	}
	if dst.Counts != src.Counts {
		t.Errorf("Counts %v, source %v", dst.Counts, src.Counts)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Error(err)
	}

	const runs = 10
	fresh := make([]*Model, runs+1) // AllocsPerRun adds one warm-up run
	for i := range fresh {
		fresh[i] = NewModel(4)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := fresh[next].RestoreState(st); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 1 {
		t.Errorf("restoring %d lines into a fresh directory allocated %v times, want 1 (the table)", len(st.Entries), allocs)
	}
}
