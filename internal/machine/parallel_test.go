package machine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// contendedPrivate returns the per-thread private ranges of contendedProg:
// each thread's streaming buffer (reg 2). The falsely shared line (reg 0)
// is deliberately not declared.
func contendedPrivate() [][]mem.Range {
	out := make([][]mem.Range, 4)
	for i := range out {
		base := mem.HeapBase + 0x10000 + mem.Addr(i)<<12
		out[i] = []mem.Range{{Start: base, End: base + 0x1000}}
	}
	return out
}

// forceDispatch lowers m's engine dispatch threshold to one instruction,
// so every segment of a tiny test program goes through the worker pool
// instead of running inline.
func forceDispatch(m *Machine) *Machine {
	m.eng.threshold = 1
	for c := range m.eng.state {
		m.eng.state[c].ema = 1
	}
	return m
}

// runEngines runs the same program serially and under the parallel engine
// at several worker counts, and demands bit-identical statistics,
// coherence counters, HITM ground truth, and sampled memory.
func runEngines(t *testing.T, prog *isa.Program, specs []ThreadSpec, cfg Config, sample []mem.Addr) {
	t.Helper()
	type outcome struct {
		st     Stats
		counts [7]uint64
		mem    []uint64
	}
	run := func(par int, force bool) outcome {
		c := cfg
		c.Parallelism = par
		c.ValidateSharing = true
		m := New(prog, c, specs)
		if par > 1 && !m.IntraRunParallel() {
			t.Fatalf("parallel engine not engaged at Parallelism=%d", par)
		}
		if force {
			forceDispatch(m)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("coherence invariants: %v", err)
		}
		var o outcome
		o.st = *m.Stats()
		copy(o.counts[:], m.coh.Counts[:])
		for _, a := range sample {
			o.mem = append(o.mem, m.ReadData(a, 8))
		}
		return o
	}
	want := run(1, false)
	for _, par := range []int{2, 3, 8} {
		// Forced dispatch sends every segment through the worker pool;
		// the default threshold exercises the adaptive inline path.
		for _, force := range []bool{true, false} {
			got := run(par, force)
			if want.st.Cycles != got.st.Cycles || want.st.Instructions != got.st.Instructions ||
				want.st.MemAccesses != got.st.MemAccesses {
				t.Fatalf("par=%d force=%v: cycles/instr/mem = %d/%d/%d, want %d/%d/%d",
					par, force, got.st.Cycles, got.st.Instructions, got.st.MemAccesses,
					want.st.Cycles, want.st.Instructions, want.st.MemAccesses)
			}
			if !reflect.DeepEqual(want.st.CoreCycles, got.st.CoreCycles) {
				t.Fatalf("par=%d force=%v: core cycles %v, want %v", par, force, got.st.CoreCycles, want.st.CoreCycles)
			}
			if want.counts != got.counts {
				t.Fatalf("par=%d force=%v: coherence counts %v, want %v", par, force, got.counts, want.counts)
			}
			if !reflect.DeepEqual(want.st.HITMByPC, got.st.HITMByPC) {
				t.Fatalf("par=%d force=%v: HITMByPC diverged", par, force)
			}
			if want.st.Flushes != got.st.Flushes || want.st.SSBStores != got.st.SSBStores ||
				want.st.Commits != got.st.Commits || want.st.ProbeCycles != got.st.ProbeCycles {
				t.Fatalf("par=%d force=%v: SSB/commit/probe stats diverged: %+v vs %+v", par, force, got.st, want.st)
			}
			if !reflect.DeepEqual(want.mem, got.mem) {
				t.Fatalf("par=%d force=%v: final memory diverged", par, force)
			}
		}
	}
}

// TestEngineEquivalenceContended: the scheduler test workload — private
// streaming plus a falsely shared line — must come out identical under
// the parallel engine at any worker count.
func TestEngineEquivalenceContended(t *testing.T) {
	prog, specs := contendedProg(3000)
	var sample []mem.Addr
	for i := 0; i < 4; i++ {
		sample = append(sample, mem.HeapBase+mem.Addr(i*8))
		sample = append(sample, mem.HeapBase+0x10000+mem.Addr(i)<<12+128)
	}
	runEngines(t, prog, specs, Config{Cores: 4, PrivateData: contendedPrivate()}, sample)
}

// TestEngineEquivalencePrivateHeavy: a nearly contention-free workload —
// the case the engine exists for (long segments, rare events).
func TestEngineEquivalencePrivateHeavy(t *testing.T) {
	b := isa.NewBuilder().At("priv.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.AluI(isa.And, 4, 1, 255)
	b.AluI(isa.Shl, 4, 4, 3)
	b.Add(4, 4, 2)
	b.Load(5, 4, 0, 8)
	b.AluI(isa.Mul, 5, 5, 3)
	b.AluI(isa.Add, 5, 5, 7)
	b.Store(4, 0, 5, 8)
	// A rare shared fetch-add keeps the coherence machinery honest.
	b.AluI(isa.And, 6, 1, 1023)
	b.BranchI(isa.Ne, 6, 0, "skip")
	b.Li(7, 1)
	b.FetchAdd(8, 0, 0, 7, 8)
	b.Label("skip")
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 20_000, "loop")
	b.Halt()
	prog := b.Build()
	specs := make([]ThreadSpec, 4)
	priv := make([][]mem.Range, 4)
	for i := range specs {
		base := mem.HeapBase + 0x4000 + mem.Addr(i)*0x2000
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{
			0: int64(mem.HeapBase), // shared counter line
			2: int64(base),
		}}
		priv[i] = []mem.Range{{Start: base, End: base + 0x2000}}
	}
	sample := []mem.Addr{mem.HeapBase}
	for i := 0; i < 4; i++ {
		sample = append(sample, mem.HeapBase+0x4000+mem.Addr(i)*0x2000+64)
	}
	runEngines(t, prog, specs, Config{Cores: 4, PrivateData: priv}, sample)
}

// TestEngineStackPrivate: SP-relative traffic must be recognized as
// private via the stack-escape analysis (no declared ranges at all).
func TestEngineStackPrivate(t *testing.T) {
	b := isa.NewBuilder().At("stack.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.AluI(isa.And, 4, 1, 63)
	b.AluI(isa.Shl, 4, 4, 3)
	b.Alu(isa.Sub, 4, isa.SP, 4) // sp - idx*8: own stack
	b.Load(5, 4, -1024, 8)
	b.AddI(5, 5, 3)
	b.Store(4, -1024, 5, 8)
	b.AluI(isa.And, 6, 1, 255)
	b.BranchI(isa.Ne, 6, 0, "skip")
	b.Load(7, 0, 0, 8) // shared line read
	b.Store(0, 8, 7, 8)
	b.Label("skip")
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 8_000, "loop")
	b.Halt()
	prog := b.Build()
	specs := make([]ThreadSpec, 3)
	for i := range specs {
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{0: int64(mem.HeapBase)}}
	}
	runEngines(t, prog, specs, Config{Cores: 3}, []mem.Addr{mem.HeapBase, mem.HeapBase + 8})
}

// TestEngineSliceInvariance: chopping a parallel-engine run into RunFor
// slices must reproduce the uninterrupted run exactly, as the LASER
// polling harness requires.
func TestEngineSliceInvariance(t *testing.T) {
	prog, specs := contendedProg(2000)
	cfg := Config{Cores: 4, Parallelism: 4, PrivateData: contendedPrivate()}
	whole := forceDispatch(New(prog, cfg, specs))
	wst, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	sliced := forceDispatch(New(prog, cfg, specs))
	var target uint64
	for {
		target += 10_000
		done, err := sliced.RunFor(target)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	sst := sliced.Stats()
	if wst.Cycles != sst.Cycles || wst.Instructions != sst.Instructions ||
		wst.HITMLoads != sst.HITMLoads || wst.HITMStores != sst.HITMStores {
		t.Errorf("sliced run diverged: %+v vs %+v", wst, sst)
	}
	if !reflect.DeepEqual(wst.HITMByPC, sst.HITMByPC) {
		t.Errorf("sliced HITMByPC differs")
	}
}

// TestEngineSheriffMode: the private-memory (Sheriff) execution model
// under the engine — every plain access is overlay-local, commits are
// events.
func TestEngineSheriffMode(t *testing.T) {
	b := isa.NewBuilder().At("sherpar.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.AluI(isa.And, 4, 1, 127)
	b.AluI(isa.Shl, 4, 4, 3)
	b.Add(4, 4, 2)
	b.Load(5, 4, 0, 8)
	b.AddI(5, 5, 1)
	b.Store(4, 0, 5, 8)
	b.AluI(isa.And, 6, 1, 511)
	b.BranchI(isa.Ne, 6, 0, "skip")
	b.Li(7, 1)
	b.FetchAdd(8, 0, 0, 7, 8) // commit point
	b.Label("skip")
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 4_000, "loop")
	b.Halt()
	prog := b.Build()
	specs := make([]ThreadSpec, 4)
	for i := range specs {
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{
			0: int64(mem.HeapBase),
			2: int64(mem.HeapBase + 0x8000 + mem.Addr(i)*0x1000),
		}}
	}
	var commits uint64
	cfg := Config{Cores: 4, PrivateMemory: true,
		OnCommit: func(tid int, writes []LineWrite, now uint64) uint64 { commits++; return 100 }}
	runEngines(t, prog, specs, cfg, []mem.Addr{mem.HeapBase})
	if commits == 0 {
		t.Fatal("sheriff commits never ran")
	}
}

// TestEngineSheriffMessagePassing: under the Sheriff model, a plain load
// that misses the thread's own overlay observes other threads' commits —
// it must retire in the global serial order, never inside a segment. The
// regression here is a spin-wait on a flag another thread publishes at a
// commit point: treating the spin load as thread-local spins the worker
// to the cycle cap (and races with the committing scheduler).
func TestEngineSheriffMessagePassing(t *testing.T) {
	b := isa.NewBuilder().At("mp.c", 1)
	b.Func("producer")
	b.Li(4, 1)
	b.Store(0, 0, 4, 8) // flag = 1, buffered in the overlay
	b.Li(5, 1)
	b.FetchAdd(6, 0, 64, 5, 8) // commit point publishes the flag
	b.Halt()
	b.Func("consumer")
	spin := b.Pos()
	b.Load(4, 0, 0, 8) // plain load: overlay miss, reads shared memory
	_ = spin
	b.BranchI(isa.Eq, 4, 0, "consumer")
	b.Halt()
	prog := b.Build()
	specs := []ThreadSpec{
		{Entry: 0, Regs: map[isa.Reg]int64{0: int64(mem.HeapBase)}},
		{Entry: prog.Funcs[1].Start, Regs: map[isa.Reg]int64{0: int64(mem.HeapBase)}},
	}
	cfg := Config{Cores: 2, PrivateMemory: true, MaxCycles: 1 << 30}
	runEngines(t, prog, specs, cfg, []mem.Addr{mem.HeapBase})
}

// randomEngineProg generates a structured random workload: counted loops
// whose bodies mix private loads/stores (heap slices and own-stack),
// shared RMWs, atomics, rate-limited contention, pauses and I/O. The
// shapes mirror the stock workloads so the property test walks the same
// engine paths the evaluation does.
func randomEngineProg(r *rand.Rand) (*isa.Program, []ThreadSpec, [][]mem.Range, []mem.Addr) {
	threads := 2 + r.Intn(3)
	b := isa.NewBuilder().At("rand.c", 1)
	b.Func("worker")
	iters := int64(300 + r.Intn(1200))
	b.Li(20, 0)
	b.Label("top")
	nops := 3 + r.Intn(8)
	for k := 0; k < nops; k++ {
		size := []uint8{1, 2, 4, 8}[r.Intn(4)]
		switch r.Intn(12) {
		case 0, 1, 2: // private load
			b.AluI(isa.And, 21, 20, int64(r.Intn(4))<<8|255)
			b.AluI(isa.Shl, 21, 21, 3)
			b.Add(22, 1, 21)
			b.Load(23, 22, int64(r.Intn(8)), size)
		case 3, 4: // private store
			b.AluI(isa.And, 21, 20, 511)
			b.AluI(isa.Shl, 21, 21, 3)
			b.Add(22, 1, 21)
			b.Store(22, 0, 23, size)
		case 5: // ALU mix
			b.AluI(isa.Mul, 23, 23, int64(r.Intn(7))+3)
			b.AluI(isa.Xor, 24, 23, int64(r.Intn(1024)))
			b.AluI(isa.Div, 24, 24, int64(r.Intn(5))+1)
		case 6: // shared load
			b.AluI(isa.And, 21, 20, 7)
			b.AluI(isa.Shl, 21, 21, 3)
			b.Add(22, 0, 21)
			b.Load(23, 22, 0, size)
		case 7: // shared store (false/true sharing traffic)
			b.Store(0, int64(r.Intn(8))*8, 23, size)
		case 8: // atomic on the shared line
			b.Li(24, 1)
			b.FetchAdd(25, 0, int64(r.Intn(4))*8, 24, 8)
		case 9: // rate-limited shared RMW
			skip := "skip" + string(rune('a'+k)) + string(rune('0'+nops))
			b.AluI(isa.And, 25, 20, int64(1)<<(4+r.Intn(6))-1)
			b.BranchI(isa.Ne, 25, 0, skip)
			b.Load(23, 0, 16, 8)
			b.AddI(23, 23, 1)
			b.Store(0, 16, 23, 8)
			b.Label(skip)
		case 10: // own-stack traffic
			b.AluI(isa.And, 21, 20, 31)
			b.AluI(isa.Shl, 21, 21, 3)
			b.Alu(isa.Sub, 22, isa.SP, 21)
			b.Store(22, -512, 23, 8)
			b.Load(24, 22, -512, 8)
		case 11:
			if r.Intn(2) == 0 {
				b.Pause()
			} else {
				b.IO(int64(r.Intn(2000)) + 100)
			}
		}
	}
	b.AddI(20, 20, 1)
	b.BranchI(isa.Lt, 20, iters, "top")
	if r.Intn(2) == 0 {
		b.Fence()
	}
	b.Halt()
	prog := b.Build()

	specs := make([]ThreadSpec, threads)
	priv := make([][]mem.Range, threads)
	for i := range specs {
		base := mem.HeapBase + 0x20000 + mem.Addr(i)*0x4000
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{
			0:  int64(mem.HeapBase), // shared lines
			1:  int64(base),
			23: int64(r.Intn(1 << 16)),
		}}
		priv[i] = []mem.Range{{Start: base, End: base + 0x4000}}
	}
	sample := []mem.Addr{mem.HeapBase, mem.HeapBase + 16, mem.HeapBase + 24}
	for i := 0; i < threads; i++ {
		sample = append(sample, mem.HeapBase+0x20000+mem.Addr(i)*0x4000+256)
	}
	return prog, specs, priv, sample
}

// TestEngineEquivalenceRandomPrograms is the cross-engine property test:
// random structured programs must produce identical results under the
// serial scheduler and the parallel engine at several worker counts.
func TestEngineEquivalenceRandomPrograms(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 6
	}
	for seed := 0; seed < n; seed++ {
		r := rand.New(rand.NewSource(int64(seed)*7919 + 17))
		prog, specs, priv, sample := randomEngineProg(r)
		t.Run("", func(t *testing.T) {
			runEngines(t, prog, specs, Config{Cores: len(specs), PrivateData: priv}, sample)
		})
	}
}

// TestEngineFallbacks: configurations the engine does not support must
// silently run serial.
func TestEngineFallbacks(t *testing.T) {
	prog, specs := contendedProg(10)
	// More threads than cores: quantum switching forces the serial path.
	m := New(prog, Config{Cores: 2, Parallelism: 4}, specs)
	if m.IntraRunParallel() {
		t.Fatal("engine must not engage with multiple threads per core")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Parallelism <= 1 is the serial scheduler.
	m = New(prog, Config{Cores: 4}, specs)
	if m.IntraRunParallel() {
		t.Fatal("engine engaged without Parallelism")
	}
}

// TestEngineOverlapPanics: overlapping private declarations are a
// construction bug and must fail loudly.
func TestEngineOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping private ranges did not panic")
		}
	}()
	prog, specs := contendedProg(10)
	decl := [][]mem.Range{
		{{Start: mem.HeapBase, End: mem.HeapBase + 128}},
		{{Start: mem.HeapBase + 64, End: mem.HeapBase + 256}},
	}
	New(prog, Config{Cores: 4, Parallelism: 2, PrivateData: decl}, specs)
}

// TestEngineValidateSharingCatchesLies: a deliberately false privacy
// declaration must be caught by the validation mode. The validation
// panic is contained by RunFor like any other execution panic, so it
// surfaces as a *PanicError return.
func TestEngineValidateSharingCatchesLies(t *testing.T) {
	prog, specs := contendedProg(100)
	// Declare the *shared* line private to thread 0 — threads 1..3 hit it
	// every iteration.
	decl := [][]mem.Range{{{Start: mem.HeapBase, End: mem.HeapBase + 64}}}
	m := forceDispatch(New(prog, Config{Cores: 4, Parallelism: 4,
		PrivateData: decl, ValidateSharing: true}, specs))
	_, err := m.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("false private declaration was not detected: Run() = %v, want *PanicError", err)
	}
}
