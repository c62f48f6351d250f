package repair

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

const heap = mem.HeapBase

// fsLoop builds the linear_regression-shaped workload: per-thread struct
// updates with loads from a private points array, a store-heavy body, and
// the structs falsely shared on one line.
//
//	r0 = struct base (contended line), r10 = points base (private)
func fsLoop(iters int64) *isa.Program {
	b := isa.NewBuilder().At("lreg.c", 100)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop").Line(102)
	b.Load(2, 10, 0, 8) // x  (private, alias-exemptible)
	b.Load(3, 10, 8, 8) // y
	b.Load(4, 0, 0, 8)  // SX
	b.Add(4, 4, 2)
	b.Store(0, 0, 4, 8) // SX += x
	b.Line(103)
	b.Load(5, 0, 8, 8) // SY
	b.Add(5, 5, 3)
	b.Store(0, 8, 5, 8) // SY += y
	b.Line(104).AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Line(106).Halt()
	return b.Build()
}

func fsSpecs() []machine.ThreadSpec {
	return []machine.ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap), 10: int64(heap) + 1024}},
		{Regs: map[isa.Reg]int64{0: int64(heap) + 16, 10: int64(heap) + 2048}},
	}
}

// storePCs returns the PCs of the contending stores, as LASERDETECT
// would report them.
func storePCs(p *isa.Program) []mem.Addr {
	var pcs []mem.Addr
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpStore {
			pcs = append(pcs, p.Instrs[i].PC)
		}
	}
	return pcs
}

func TestAnalyzeProducesPlan(t *testing.T) {
	p := fsLoop(1000)
	plan, err := Analyze(DefaultConfig(), p, storePCs(p))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(plan.Instrument) == 0 {
		t.Fatal("empty instrumentation set")
	}
	// Both stores instrumented.
	stores := 0
	for i := range plan.Instrument {
		if p.Instrs[i].Op == isa.OpStore {
			stores++
		}
	}
	if stores != 2 {
		t.Errorf("instrumented stores = %d, want 2", stores)
	}
	// Loads from r10 (never a store base) are alias-exempt; loads from
	// r0 (a store base) are instrumented.
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op != isa.OpLoad {
			continue
		}
		if in.Rs1 == 10 && !plan.AliasExempt[i] {
			t.Errorf("private load at %d not exempted", i)
		}
		if in.Rs1 == 0 && !plan.Instrument[i] {
			t.Errorf("contended load at %d not instrumented", i)
		}
	}
	// One flush, placed after the loop (at the halt block).
	if len(plan.FlushBefore) != 1 {
		t.Fatalf("flushes = %v, want one", plan.FlushBefore)
	}
	if got := p.Instrs[plan.FlushBefore[0]].Line; got != 106 {
		t.Errorf("flush placed at line %d, want 106 (loop exit)", got)
	}
	if plan.EstStoresPerFlush < MinStoreFlushRatio {
		t.Errorf("profitability estimate %.1f below bar", plan.EstStoresPerFlush)
	}
	// One alias check per base register per block, not per load.
	checks := 0
	for range plan.CheckBefore {
		checks++
	}
	if checks != 1 {
		t.Errorf("alias checks = %d, want 1 (two loads share the r10 def)", checks)
	}
}

func TestAnalyzeRefusesFencedRegion(t *testing.T) {
	// A contending store inside a tight critical section: the fence per
	// iteration makes SSB repair unprofitable (§5.4).
	b := isa.NewBuilder().At("locked.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Store(0, 0, 2, 8)
	b.Fence()
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 100, "loop")
	b.Halt()
	p := b.Build()
	_, err := Analyze(DefaultConfig(), p, storePCs(p))
	if !errors.Is(err, ErrNotProfitable) {
		t.Errorf("err = %v, want ErrNotProfitable", err)
	}
}

func TestAnalyzeRefusesCallsInRegion(t *testing.T) {
	b := isa.NewBuilder().At("callee.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Store(0, 0, 2, 8)
	b.Call("helper")
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 100, "loop")
	b.Halt()
	b.Func("helper")
	b.AddI(9, 9, 1)
	b.Ret()
	p := b.Build()
	_, err := Analyze(DefaultConfig(), p, storePCs(p))
	if !errors.Is(err, ErrComplexRegion) {
		t.Errorf("err = %v, want ErrComplexRegion", err)
	}
}

func TestAnalyzeNoCandidates(t *testing.T) {
	p := fsLoop(10)
	if _, err := Analyze(DefaultConfig(), p, []mem.Addr{0xdead}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestAnalyzeToleratesPCSkid(t *testing.T) {
	// LASERDETECT PCs skid one instruction forward; analysis must find
	// the memory op anyway.
	p := fsLoop(10)
	var skidded []mem.Addr
	for _, pc := range storePCs(p) {
		skidded = append(skidded, pc+mem.InstrBytes)
	}
	if _, err := Analyze(DefaultConfig(), p, skidded); err != nil {
		t.Errorf("Analyze with skidded PCs: %v", err)
	}
}

func TestRewriteSemanticsPreserved(t *testing.T) {
	p := fsLoop(500)
	plan, err := Analyze(DefaultConfig(), p, storePCs(p))
	if err != nil {
		t.Fatal(err)
	}
	inst, _, _ := Rewrite(p, plan)
	runOne := func(prog *isa.Program) (uint64, uint64, *machine.Stats) {
		m := machine.New(prog, machine.Config{Cores: 4}, fsSpecs())
		m.WriteData(heap+1024, 8, 3) // thread 0's x
		m.WriteData(heap+1032, 8, 5) // thread 0's y
		m.WriteData(heap+2048, 8, 7) // thread 1's x
		m.WriteData(heap+2056, 8, 11)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.ReadData(heap, 8) + m.ReadData(heap+8, 8),
			m.ReadData(heap+16, 8) + m.ReadData(heap+24, 8), st
	}
	a0, a1, stOrig := runOne(p)
	b0, b1, stInst := runOne(inst)
	if a0 != 500*(3+5) || a1 != 500*(7+11) {
		t.Errorf("original results wrong: %d, %d", a0, a1)
	}
	if a0 != b0 || a1 != b1 {
		t.Errorf("results differ: (%d,%d) vs (%d,%d)", a0, a1, b0, b1)
	}
	if stInst.HITMs() >= stOrig.HITMs()/4 {
		t.Errorf("rewrite did not curb HITMs: %d vs %d", stInst.HITMs(), stOrig.HITMs())
	}
	if stInst.Cycles >= stOrig.Cycles {
		t.Errorf("rewrite not profitable: %d vs %d cycles", stInst.Cycles, stOrig.Cycles)
	}
}

func TestRewriteRemapTargets(t *testing.T) {
	p := fsLoop(10)
	plan, err := Analyze(DefaultConfig(), p, storePCs(p))
	if err != nil {
		t.Fatal(err)
	}
	inst, fwd, rev := Rewrite(p, plan)
	// Every original instruction must be reachable via fwd and map back
	// via rev.
	for i := range p.Instrs {
		ni := fwd[i]
		if ni < 0 || ni >= len(inst.Instrs) {
			t.Fatalf("fwd[%d] = %d out of range", i, ni)
		}
		if rev[ni] != i && inst.Instrs[ni].Op != isa.OpSSBFlush && inst.Instrs[ni].Op != isa.OpAliasCheck {
			t.Errorf("rev[fwd[%d]] = %d", i, rev[ni])
		}
	}
	// Branch targets must point at semantically-equivalent positions.
	for i := range inst.Instrs {
		in := &inst.Instrs[i]
		if in.Op == isa.OpBranch || in.Op == isa.OpJump || in.Op == isa.OpCall {
			if in.Target < 0 || in.Target >= len(inst.Instrs) {
				t.Errorf("instr %d target %d out of range", i, in.Target)
			}
		}
	}
}

func TestControllerApplyAndRun(t *testing.T) {
	p := fsLoop(2000)
	m := machine.New(p, machine.Config{Cores: 4}, fsSpecs())
	m.WriteData(heap+1024, 8, 3)
	m.WriteData(heap+2048, 8, 7)
	ctl := NewController(DefaultConfig(), m)
	if err := ctl.Apply(storePCs(p)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !ctl.Applied() {
		t.Fatal("controller not applied")
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.SSBStores == 0 || st.Flushes == 0 {
		t.Errorf("SSB not exercised: %+v", st)
	}
	if got := m.ReadData(heap, 8); got != 2000*3 {
		t.Errorf("thread 0 SX = %d, want %d", got, 2000*3)
	}
	if got := m.ReadData(heap+16, 8); got != 2000*7 {
		t.Errorf("thread 1 SX = %d, want %d", got, 2000*7)
	}
	// Idempotent.
	if err := ctl.Apply(storePCs(p)); err != nil {
		t.Errorf("second Apply: %v", err)
	}
}

func TestControllerAliasMissFallsBack(t *testing.T) {
	// Craft a program where the "private" load base actually aliases the
	// stored line at runtime: speculation fails, the controller must
	// reinstall conservative code, and execution still completes with
	// correct results.
	b := isa.NewBuilder().At("aliasy.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("loop")
	b.Load(2, 10, 0, 8) // "private" load — actually same line as r0
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 400, "loop")
	b.Halt()
	p := b.Build()
	specs := []machine.ThreadSpec{
		{Regs: map[isa.Reg]int64{0: int64(heap), 10: int64(heap)}},
	}
	var ctl *Controller
	m := machine.New(p, machine.Config{Cores: 1, OnAliasMiss: func(tid int, pc mem.Addr) {
		ctl.OnAliasMiss(tid, pc)
	}}, specs)
	ctl = NewController(DefaultConfig(), m)
	if err := ctl.Apply([]mem.Addr{p.Instrs[3].PC}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.AliasMisses == 0 {
		t.Fatal("alias speculation never failed")
	}
	if !ctl.Conservative() {
		t.Error("controller did not fall back to conservative code")
	}
	if got := m.ReadData(heap, 8); got != 400 {
		t.Errorf("final value = %d, want 400", got)
	}
}

// Property: for random store/load/ALU loop bodies, the rewritten program
// computes exactly the same memory as the original (single-threaded).
func TestRewritePreservesSemanticsProperty(t *testing.T) {
	f := func(ops []uint8, iters uint8) bool {
		if len(ops) == 0 {
			return true
		}
		if len(ops) > 12 {
			ops = ops[:12]
		}
		n := int64(iters%20) + 2
		b := isa.NewBuilder().At("rand.c", 1)
		b.Func("worker")
		b.Li(1, 0)
		b.Label("loop")
		hasStore := false
		for k, op := range ops {
			off := int64(op%4) * 8
			switch op % 3 {
			case 0:
				b.Store(0, off, 2, 8)
				hasStore = true
			case 1:
				b.Load(2, 0, off, 8)
			case 2:
				b.AluI(isa.ALUKind(k%3), 2, 2, int64(op)+1)
			}
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, n, "loop")
		b.Halt()
		p := b.Build()
		if !hasStore {
			return true
		}
		plan, err := Analyze(DefaultConfig(), p, storePCs(p))
		if err != nil {
			return true // refusal is fine; we test applied rewrites
		}
		inst, _, _ := Rewrite(p, plan)
		specs := []machine.ThreadSpec{{Regs: map[isa.Reg]int64{0: int64(heap)}}}
		m1 := machine.New(p, machine.Config{Cores: 1}, specs)
		if _, err := m1.Run(); err != nil {
			return false
		}
		m2 := machine.New(inst, machine.Config{Cores: 1},
			[]machine.ThreadSpec{{Regs: map[isa.Reg]int64{0: int64(heap)}}})
		if _, err := m2.Run(); err != nil {
			return false
		}
		for off := mem.Addr(0); off < 64; off += 8 {
			if m1.ReadData(heap+off, 8) != m2.ReadData(heap+off, 8) {
				return false
			}
		}
		return m1.Reg(0, 2) == m2.Reg(0, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
