package machine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

const heap = mem.HeapBase

// run builds and runs a machine over prog with the given thread specs.
func run(t *testing.T, prog *isa.Program, cfg Config, specs []ThreadSpec) (*Machine, *Stats) {
	t.Helper()
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	m := New(prog, cfg, specs)
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, st
}

func TestSingleThreadArithmetic(t *testing.T) {
	b := isa.NewBuilder().At("a.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	b.Li(1, 0) // i
	b.Li(2, 0) // sum
	b.Label("loop")
	b.Add(2, 2, 1)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 100, "loop")
	b.Store(0, 0, 2, 8)
	b.Halt()
	m, st := run(t, b.Build(), Config{}, []ThreadSpec{{Entry: 0}})
	if got := m.ReadData(heap, 8); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	if st.Instructions == 0 || st.Cycles == 0 {
		t.Error("no stats recorded")
	}
}

func TestLoadStoreSizes(t *testing.T) {
	b := isa.NewBuilder().At("sizes.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	b.Li(1, 0x1122334455667788-0x1122334455667788%1+0x11) // arbitrary
	b.Li(1, 0x7FEECCBBAA998877)
	b.Store(0, 0, 1, 8)
	b.Load(2, 0, 0, 1)
	b.Load(3, 0, 0, 2)
	b.Load(4, 0, 0, 4)
	b.Load(5, 0, 0, 8)
	b.Halt()
	m, _ := run(t, b.Build(), Config{}, []ThreadSpec{{Entry: 0}})
	if got := uint64(m.Reg(0, 2)); got != 0x77 {
		t.Errorf("byte load = %#x", got)
	}
	if got := uint64(m.Reg(0, 3)); got != 0x8877 {
		t.Errorf("half load = %#x", got)
	}
	if got := uint64(m.Reg(0, 4)); got != 0xAA998877 {
		t.Errorf("word load = %#x", got)
	}
	if got := uint64(m.Reg(0, 5)); got != 0x7FEECCBBAA998877 {
		t.Errorf("quad load = %#x", got)
	}
}

func TestCallRet(t *testing.T) {
	b := isa.NewBuilder().At("call.c", 1)
	b.Func("main")
	b.Li(1, 5)
	b.Call("double")
	b.Call("double")
	b.LiAddr(0, heap)
	b.Store(0, 0, 1, 8)
	b.Halt()
	b.InUnit(isa.UnitLib).At("lib.c", 10)
	b.Func("double")
	b.Add(1, 1, 1)
	b.Ret()
	m, _ := run(t, b.Build(), Config{}, []ThreadSpec{{Entry: 0}})
	if got := m.ReadData(heap, 8); got != 20 {
		t.Errorf("double(double(5)) stored %d, want 20", got)
	}
}

func TestCASSemantics(t *testing.T) {
	b := isa.NewBuilder().At("cas.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	b.Li(1, 0) // expected
	b.Li(2, 7) // new
	b.CAS(3, 0, 0, 1, 2, 8)
	b.CAS(4, 0, 0, 1, 2, 8) // fails: memory now 7
	b.Halt()
	m, _ := run(t, b.Build(), Config{}, []ThreadSpec{{Entry: 0}})
	if m.Reg(0, 3) != 1 || m.Reg(0, 4) != 0 {
		t.Errorf("CAS results = %d, %d; want 1, 0", m.Reg(0, 3), m.Reg(0, 4))
	}
	if got := m.ReadData(heap, 8); got != 7 {
		t.Errorf("memory = %d, want 7", got)
	}
}

func TestFetchAddAcrossThreads(t *testing.T) {
	// Four threads atomically increment a counter 1000 times each.
	b := isa.NewBuilder().At("xadd.c", 1)
	b.Func("worker")
	b.LiAddr(0, heap)
	b.Li(1, 0)
	b.Li(2, 1)
	b.Label("loop")
	b.FetchAdd(3, 0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 1000, "loop")
	b.Halt()
	p := b.Build()
	specs := make([]ThreadSpec, 4)
	m, _ := run(t, p, Config{}, specs)
	if got := m.ReadData(heap, 8); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
}

// buildFalseSharing builds two threads writing adjacent words of one line
// (pad=0) or separate lines (pad=64): the Figure 2 pattern.
func buildFalseSharing(pad int64, iters int64) (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("fs.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(3)
	b.Load(2, 0, 0, 8)
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Halt()
	p := b.Build()
	stride := 8 + pad
	specs := []ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap)}},
		{Regs: map[isa.Reg]int64{0: int64(heap) + stride}},
	}
	return p, specs
}

func TestFalseSharingGeneratesHITMs(t *testing.T) {
	p, specs := buildFalseSharing(0, 2000)
	_, st := run(t, p, Config{}, specs)
	// While one core stalls on a HITM transfer the other bursts ahead
	// with local hits, so the HITM count is well below one per iteration
	// — but still large compared to the padded run's zero.
	if st.HITMs() < 200 {
		t.Errorf("false sharing produced only %d HITMs", st.HITMs())
	}
	p2, specs2 := buildFalseSharing(mem.LineSize, 2000)
	_, st2 := run(t, p2, Config{}, specs2)
	if st2.HITMs() != 0 {
		t.Errorf("padded run produced %d HITMs", st2.HITMs())
	}
	if st.Cycles < 3*st2.Cycles {
		t.Errorf("false sharing not expensive enough: %d vs %d cycles", st.Cycles, st2.Cycles)
	}
}

func TestHITMByPCGroundTruth(t *testing.T) {
	p, specs := buildFalseSharing(0, 500)
	_, st := run(t, p, Config{}, specs)
	// The store (index 3) must dominate the HITM PCs; its PC is that of
	// instruction 3.
	storePC := p.Instrs[3].PC
	loadPC := p.Instrs[1].PC
	if st.HITMByPC[storePC]+st.HITMByPC[loadPC] < st.HITMs()*9/10 {
		t.Errorf("HITM PCs not concentrated on the contending ops: %v", st.HITMByPC)
	}
}

type countingProbe struct {
	hitms    int
	switches int
	charge   uint64
}

func (p *countingProbe) OnHITM(HITMEvent) uint64 { p.hitms++; return p.charge }
func (p *countingProbe) OnContextSwitch(_, _, _ int, _ uint64) uint64 {
	p.switches++
	return 0
}

func TestProbeChargesCycles(t *testing.T) {
	p, specs := buildFalseSharing(0, 1000)
	probe := &countingProbe{charge: 500}
	_, st := run(t, p, Config{Probe: probe}, specs)
	if probe.hitms == 0 {
		t.Fatal("probe saw no HITMs")
	}
	if st.ProbeCycles != uint64(probe.hitms)*500 {
		t.Errorf("probe cycles = %d, want %d", st.ProbeCycles, probe.hitms*500)
	}
	// The same run without a probe must be faster.
	p2, specs2 := buildFalseSharing(0, 1000)
	_, st2 := run(t, p2, Config{}, specs2)
	if st.Cycles <= st2.Cycles {
		t.Errorf("probe charge did not slow the run: %d vs %d", st.Cycles, st2.Cycles)
	}
}

func TestContextSwitchingMoreThreadsThanCores(t *testing.T) {
	b := isa.NewBuilder().At("cs.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 300000, "loop")
	b.Halt()
	p := b.Build()
	probe := &countingProbe{}
	specs := make([]ThreadSpec, 6) // 6 threads on 2 cores
	m := New(p, Config{Cores: 2, Probe: probe}, specs)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ContextSwitches == 0 {
		t.Error("expected context switches with 6 threads on 2 cores")
	}
	if probe.switches != int(st.ContextSwitches) {
		t.Errorf("probe saw %d switches, stats say %d", probe.switches, st.ContextSwitches)
	}
}

func TestMaxCyclesTimeout(t *testing.T) {
	b := isa.NewBuilder().At("spin.c", 1)
	b.Func("main")
	b.Label("forever")
	b.Jump("forever")
	p := b.Build()
	m := New(p, Config{Cores: 1, MaxCycles: 10_000}, []ThreadSpec{{}})
	if _, err := m.Run(); err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// buildSSBVariant builds the same single-thread program twice: once with
// plain loads/stores, once with SSB pseudo-ops and a final flush, to check
// single-threaded semantics preservation (§5.2).
func buildSSBVariant(ssb bool, writes []uint16) (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("ssb.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	for i, w := range writes {
		off := int64(w % 256)
		size := []uint8{1, 2, 4, 8}[i%4]
		b.Li(1, int64(w)*2147483629)
		if ssb {
			b.SSBStore(0, off, 1, size)
			b.SSBLoad(2, 0, off, size)
		} else {
			b.Store(0, off, 1, size)
			b.Load(2, 0, off, size)
		}
		b.Add(3, 3, 2)
	}
	if ssb {
		b.SSBFlush()
	}
	b.Halt()
	return b.Build(), []ThreadSpec{{}}
}

func TestSSBPreservesSingleThreadSemantics(t *testing.T) {
	f := func(writes []uint16) bool {
		if len(writes) > 64 {
			writes = writes[:64]
		}
		p1, s1 := buildSSBVariant(false, writes)
		m1 := New(p1, Config{Cores: 1}, s1)
		if _, err := m1.Run(); err != nil {
			return false
		}
		p2, s2 := buildSSBVariant(true, writes)
		m2 := New(p2, Config{Cores: 1}, s2)
		if _, err := m2.Run(); err != nil {
			return false
		}
		for off := mem.Addr(0); off < 256+8; off++ {
			if m1.ReadData(heap+off, 1) != m2.ReadData(heap+off, 1) {
				t.Logf("memory differs at +%d: %d vs %d", off,
					m1.ReadData(heap+off, 1), m2.ReadData(heap+off, 1))
				return false
			}
		}
		if m1.Reg(0, 3) != m2.Reg(0, 3) {
			t.Logf("checksum reg differs: %d vs %d", m1.Reg(0, 3), m2.Reg(0, 3))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSSBEliminatesFalseSharingHITMs(t *testing.T) {
	build := func(ssb bool) (*isa.Program, []ThreadSpec) {
		b := isa.NewBuilder().At("fsr.c", 1)
		b.Func("worker")
		b.Li(1, 0)
		b.Li(2, 0)
		b.Label("loop")
		b.AddI(2, 2, 1)
		if ssb {
			b.SSBStore(0, 0, 2, 8)
		} else {
			b.Store(0, 0, 2, 8)
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, 3000, "loop")
		if ssb {
			b.SSBFlush()
		}
		b.Halt()
		p := b.Build()
		return p, []ThreadSpec{
			{Regs: map[isa.Reg]int64{0: int64(heap)}},
			{Regs: map[isa.Reg]int64{0: int64(heap) + 8}},
		}
	}
	pn, sn := build(false)
	_, stn := run(t, pn, Config{}, sn)
	pr, sr := build(true)
	mr, str := run(t, pr, Config{}, sr)
	if str.HITMs() >= stn.HITMs()/10 {
		t.Errorf("SSB did not eliminate HITMs: %d vs %d", str.HITMs(), stn.HITMs())
	}
	if str.Cycles >= stn.Cycles {
		t.Errorf("SSB repair not profitable: %d vs %d cycles", str.Cycles, stn.Cycles)
	}
	// Both threads' final values must be visible after halt-flush.
	if got := mr.ReadData(heap, 8); got != 3000 {
		t.Errorf("thread 0 result = %d, want 3000", got)
	}
	if got := mr.ReadData(heap+8, 8); got != 3000 {
		t.Errorf("thread 1 result = %d, want 3000", got)
	}
	if str.Flushes == 0 || str.SSBStores == 0 {
		t.Error("SSB stats not recorded")
	}
}

// TestTSOMessagePassing is the classic mp litmus test: with the writer's
// stores buffered in the SSB and a fence between them, the reader must
// never observe flag==1 with data==0.
func TestTSOMessagePassing(t *testing.T) {
	b := isa.NewBuilder().At("mp.c", 1)
	b.Func("writer")
	b.LiAddr(0, heap)
	b.Li(1, 1)
	b.SSBStore(0, 0, 1, 8) // data = 1
	b.Fence()              // flushes the SSB
	b.Store(0, 128, 1, 8)  // flag = 1 (different line)
	b.Halt()
	b.Func("reader")
	b.LiAddr(0, heap)
	b.Label("wait")
	b.Load(2, 0, 128, 8)
	b.BranchI(isa.Eq, 2, 0, "wait")
	b.Load(3, 0, 0, 8) // data
	b.Halt()
	p := b.Build()
	for trial := 0; trial < 10; trial++ {
		m := New(p, Config{Cores: 2}, []ThreadSpec{{Entry: 0}, {Entry: p.Funcs[1].Start}})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Reg(1, 3) != 1 {
			t.Fatalf("TSO violation: reader saw flag=1 data=%d", m.Reg(1, 3))
		}
	}
}

// TestFlushAtomicity checks strong atomicity of the HTM flush (§5.5): a
// reader that observes the *last* buffered store must also observe the
// first — no partial flush is ever visible.
func TestFlushAtomicity(t *testing.T) {
	b := isa.NewBuilder().At("atomic.c", 1)
	b.Func("writer")
	b.LiAddr(0, heap)
	b.Li(1, 1)
	b.Li(4, 0)
	b.Label("wloop")
	b.AddI(1, 1, 1)
	b.SSBStore(0, 0, 1, 8)   // A (line 0)
	b.SSBStore(0, 256, 1, 8) // B (line 4)
	b.SSBFlush()
	b.AddI(4, 4, 1)
	b.BranchI(isa.Lt, 4, 500, "wloop")
	b.Halt()
	b.Func("reader")
	b.LiAddr(0, heap)
	b.Li(5, 0)
	b.Label("rloop")
	b.Load(2, 0, 256, 8) // read B first
	b.Load(3, 0, 0, 8)   // then A
	// If B is visible, A must be at least as new: A >= B.
	b.Branch(isa.Lt, 3, 2, "fail")
	b.AddI(5, 5, 1)
	b.BranchI(isa.Lt, 5, 500, "rloop")
	b.Li(6, 0)
	b.Halt()
	b.Label("fail")
	b.Li(6, 1)
	b.Halt()
	p := b.Build()
	m := New(p, Config{Cores: 2}, []ThreadSpec{{Entry: 0}, {Entry: p.Funcs[1].Start}})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Reg(1, 6) != 0 {
		t.Error("reader observed a partial SSB flush (TSO store-order violation)")
	}
}

func TestSSBPreemptiveFlushAtCapacity(t *testing.T) {
	b := isa.NewBuilder().At("cap.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	// Store to 12 distinct lines: must trigger pre-emptive flushes.
	for i := int64(0); i < 12; i++ {
		b.Li(1, i)
		b.SSBStore(0, i*mem.LineSize, 1, 8)
	}
	b.SSBFlush()
	b.Halt()
	m, st := run(t, b.Build(), Config{Cores: 1}, []ThreadSpec{{}})
	if st.Flushes < 2 {
		t.Errorf("flushes = %d, want ≥ 2 (pre-emptive + final)", st.Flushes)
	}
	for i := int64(0); i < 12; i++ {
		if got := m.ReadData(heap+mem.Addr(i)*mem.LineSize, 8); got != uint64(i) {
			t.Errorf("line %d = %d, want %d", i, got, i)
		}
	}
}

func TestAliasCheckDetectsAliasing(t *testing.T) {
	var missPC mem.Addr
	b := isa.NewBuilder().At("alias.c", 1)
	b.Func("main")
	b.LiAddr(0, heap)
	b.LiAddr(5, heap) // aliases the stored line
	b.Li(1, 42)
	b.SSBStore(0, 0, 1, 8)
	b.AliasCheck(5, 0)
	b.Load(2, 5, 0, 4)
	b.Halt()
	p := b.Build()
	m := New(p, Config{Cores: 1, OnAliasMiss: func(tid int, pc mem.Addr) {
		missPC = pc
	}}, []ThreadSpec{{}})
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.AliasMisses != 1 {
		t.Fatalf("alias misses = %d, want 1", st.AliasMisses)
	}
	if missPC == 0 {
		t.Error("OnAliasMiss not invoked with a PC")
	}
	// The flush made the store visible, so the plain load sees it.
	if got := m.Reg(0, 2); got != 42 {
		t.Errorf("load after alias flush = %d, want 42", got)
	}
}

func TestPrivateMemorySheriffModel(t *testing.T) {
	// Two threads false-share under private memory: no HITMs, and the
	// values merge at commit points (atomics).
	b := isa.NewBuilder().At("priv.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Load(2, 0, 0, 8)
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 1000, "loop")
	b.LiAddr(3, heap+512)
	b.Li(4, 1)
	b.FetchAdd(5, 3, 0, 4, 8) // sync: commit point
	b.Halt()
	p := b.Build()
	specs := []ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap)}},
		{Regs: map[isa.Reg]int64{0: int64(heap) + 8}},
	}
	var commitsWithWrites int
	m := New(p, Config{Cores: 2, PrivateMemory: true,
		OnCommit: func(tid int, writes []LineWrite, now uint64) uint64 {
			if len(writes) > 0 {
				commitsWithWrites++
			}
			return 0
		}}, specs)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.HITMs() != 0 {
		t.Errorf("private memory produced %d HITMs", st.HITMs())
	}
	// Each thread commits at its FetchAdd (with dirty lines) and again at
	// Halt (empty): 4 commit points, 2 carrying writes.
	if commitsWithWrites != 2 || st.Commits != 4 {
		t.Errorf("commits = %d with writes / %d total, want 2 / 4",
			commitsWithWrites, st.Commits)
	}
	// Each thread's isolated counter reached 1000.
	if got := m.ReadData(heap, 8); got != 1000 {
		t.Errorf("thread 0 counter = %d, want 1000 (private semantics)", got)
	}
	if got := m.ReadData(heap+8, 8); got != 1000 {
		t.Errorf("thread 1 counter = %d, want 1000", got)
	}
	if got := m.ReadData(heap+512, 8); got != 2 {
		t.Errorf("sync counter = %d, want 2", got)
	}
}

func TestSetProgramHotSwap(t *testing.T) {
	// Swap a plain-store loop for an SSB version mid-run by remapping
	// indices 1:1 (the programs are structurally identical here).
	build := func(ssb bool) *isa.Program {
		b := isa.NewBuilder().At("swap.c", 1)
		b.Func("worker")
		b.Li(1, 0)
		b.Label("loop")
		if ssb {
			b.SSBStore(0, 0, 1, 8)
		} else {
			b.Store(0, 0, 1, 8)
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, 100000, "loop")
		b.Halt()
		return b.Build()
	}
	orig, inst := build(false), build(true)
	m := New(orig, Config{Cores: 1}, []ThreadSpec{{Regs: map[isa.Reg]int64{0: int64(heap)}}})
	// Run is not incremental here; swap before starting models attach-at-
	// startup, and the SSB program must still terminate with the value.
	m.SetProgram(inst, func(i int) int { return i })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadData(heap, 8); got != 99999 {
		t.Errorf("final value = %d, want 99999", got)
	}
}

// TestSetProgramRedecodes: a hot-swap replaces the decoded program, not
// just the instruction slice. Two threads run a loop whose first body op
// increments r2; the swapped-in program replaces exactly that op (the
// one each thread resumes at) with a store of the loop counter. After
// the swap r2 must stop counting and every remaining iteration must
// store — a stale decoded form would keep counting and never store.
func TestSetProgramRedecodes(t *testing.T) {
	const iters = 300_000
	build := func(store bool) *isa.Program {
		b := isa.NewBuilder().At("redecode.c", 1)
		b.Func("worker")
		b.Li(1, 0)
		b.Label("loop")
		if store {
			b.Store(5, 0, 1, 8)
		} else {
			b.AddI(2, 2, 1)
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, iters, "loop")
		b.Halt()
		return b.Build()
	}
	specs := []ThreadSpec{
		{Regs: map[isa.Reg]int64{5: int64(heap)}},
		{Regs: map[isa.Reg]int64{5: int64(heap + 4096)}},
	}
	identity := func(i int) int { return i }
	for _, swapAt := range []uint64{1, 500, 5_000, 50_000, 200_000, 800_000} {
		t.Run(fmt.Sprintf("swapAt=%d", swapAt), func(t *testing.T) {
			for _, cfg := range []Config{{Cores: 2}, {Cores: 2, Parallelism: 2}} {
				m := New(build(false), cfg, specs)
				// Every op costs one cycle, so stopping at a clock of 1
				// (after li) plus a whole number of 3-op iterations
				// leaves both threads at the loop's first body op.
				target := swapAt - (swapAt-1)%3
				if _, err := m.RunFor(target); err != nil {
					t.Fatal(err)
				}
				done := (target - 1) / 3
				for tid, th := range m.threads {
					if th.pc != 1 || uint64(th.regs[1]) != done {
						t.Fatalf("workers=%d: thread %d stopped at pc %d after %d iterations, want pc 1 after %d",
							cfg.Parallelism, tid, th.pc, th.regs[1], done)
					}
				}
				m.SetProgram(build(true), identity)
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				for tid := range specs {
					if got := m.Reg(tid, 2); got != int64(done) {
						t.Errorf("workers=%d: thread %d: r2 = %d, want %d (the pre-swap op kept running)", cfg.Parallelism, tid, got, done)
					}
					if got := m.ReadData(mem.Addr(specs[tid].Regs[5]), 8); got != iters-1 {
						t.Errorf("workers=%d: thread %d: stored %d, want %d", cfg.Parallelism, tid, got, iters-1)
					}
				}
				if want := 2 * (iters - done); st.MemAccesses != want {
					t.Errorf("workers=%d: MemAccesses = %d, want %d (one store per post-swap iteration)", cfg.Parallelism, st.MemAccesses, want)
				}
			}
		})
	}
}

// TestDecodeLocalMatchesLocalOps: batches run ahead of the scheduler
// only through local kinds, which is sound only where the sharing
// analysis agrees the opcode touches thread-local state alone — so
// every opcode, in every operand form, must decode to a kind whose
// local bit matches isa.LocalOps.
func TestDecodeLocalMatchesLocalOps(t *testing.T) {
	var instrs []isa.Instr
	for op := range isa.LocalOps {
		for k := isa.Add; k <= isa.Shr; k++ {
			for _, imm := range []bool{false, true} {
				instrs = append(instrs, isa.Instr{Op: isa.Op(op), ALU: k, UseImm: imm})
			}
		}
	}
	for i, o := range decode(&isa.Program{Instrs: instrs}) {
		in := &instrs[i]
		if o.kind.local() != isa.LocalOps[in.Op] {
			t.Errorf("%v (alu %v, imm %v) decodes to kind %d, local=%v; isa.LocalOps says %v",
				in.Op, in.ALU, in.UseImm, o.kind, o.kind.local(), isa.LocalOps[in.Op])
		}
	}
}
