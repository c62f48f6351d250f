package isa

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// buildLoop assembles a tiny counting loop used across tests:
//
//	main:   li   r1, 0
//	loop:   ld8  r2, [r0+0]
//	        add  r2, r2, 1
//	        st8  [r0+0], r2
//	        add  r1, r1, 1
//	        b.lt r1, 10, loop
//	        halt
func buildLoop() *Program {
	b := NewBuilder().At("loop.c", 10)
	b.Func("main")
	b.Li(1, 0)
	b.Label("loop").Line(12)
	b.Load(2, 0, 0, 8)
	b.AddI(2, 2, 1)
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(Lt, 1, 10, "loop")
	b.Line(14).Halt()
	return b.Build()
}

func TestBuilderAssignsPCs(t *testing.T) {
	p := buildLoop()
	if len(p.Instrs) != 7 {
		t.Fatalf("got %d instructions, want 7", len(p.Instrs))
	}
	for i, in := range p.Instrs {
		want := mem.AppTextBase + mem.Addr(i*mem.InstrBytes)
		if in.PC != want {
			t.Errorf("instr %d PC = %#x, want %#x", i, in.PC, want)
		}
		if got, ok := p.IndexOf(in.PC); !ok || got != i {
			t.Errorf("IndexOf(%#x) = %d,%v want %d,true", in.PC, got, ok, i)
		}
	}
	if _, ok := p.IndexOf(mem.AppTextBase - 4); ok {
		t.Error("IndexOf before text should fail")
	}
}

func TestBuilderUnits(t *testing.T) {
	b := NewBuilder().At("app.c", 1)
	b.Func("main")
	b.Call("lock")
	b.Halt()
	b.InUnit(UnitLib).At("pthread.c", 500)
	b.Func("lock")
	b.Ret()
	p := b.Build()
	if p.Instrs[0].PC != mem.AppTextBase {
		t.Errorf("app instr PC = %#x", p.Instrs[0].PC)
	}
	if p.Instrs[2].PC != mem.LibTextBase {
		t.Errorf("lib instr PC = %#x, want lib base", p.Instrs[2].PC)
	}
	if p.AppTextSize() != 2*mem.InstrBytes || p.LibTextSize() != 1*mem.InstrBytes {
		t.Errorf("text sizes app=%d lib=%d", p.AppTextSize(), p.LibTextSize())
	}
	if p.Instrs[0].Target != 2 {
		t.Errorf("call target = %d, want 2", p.Instrs[0].Target)
	}
}

func TestBuilderLabelResolution(t *testing.T) {
	p := buildLoop()
	br := p.Instrs[5]
	if br.Op != OpBranch || br.Target != 1 {
		t.Errorf("branch target = %d, want 1", br.Target)
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for undefined label")
		}
	}()
	b := NewBuilder()
	b.Jump("nowhere")
	b.Build()
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate label")
		}
	}()
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 3")
		}
	}()
	NewBuilder().Load(1, 0, 0, 3)
}

// TestLoadStoreSets checks the §4.3 load/store sets, which are the
// program text itself: the memory instructions are exactly the loop's
// load and store, each in its own set, with its access size.
func TestLoadStoreSets(t *testing.T) {
	p := buildLoop()
	var mems []int
	for i := range p.Instrs {
		if p.Instrs[i].IsMem() {
			mems = append(mems, i)
		}
	}
	if len(mems) != 2 || mems[0] != 1 || mems[1] != 3 {
		t.Fatalf("memory instructions at %v, want [1 3]", mems)
	}
	if ld := &p.Instrs[1]; !ld.IsLoad() || ld.IsStore() || ld.Size != 8 {
		t.Errorf("load: IsLoad %t IsStore %t Size %d", ld.IsLoad(), ld.IsStore(), ld.Size)
	}
	if st := &p.Instrs[3]; st.IsLoad() || !st.IsStore() || st.Size != 8 {
		t.Errorf("store: IsLoad %t IsStore %t Size %d", st.IsLoad(), st.IsStore(), st.Size)
	}
}

func TestCASIsBothLoadAndStore(t *testing.T) {
	b := NewBuilder()
	b.Func("f")
	b.CAS(1, 0, 0, 2, 3, 8)
	b.Halt()
	p := b.Build()
	cas := &p.Instrs[0]
	if !cas.IsMem() || !cas.IsLoad() || !cas.IsStore() || cas.Size != 8 {
		t.Errorf("CAS must be in both sets: IsMem %t IsLoad %t IsStore %t Size %d",
			cas.IsMem(), cas.IsLoad(), cas.IsStore(), cas.Size)
	}
	if !cas.IsFence() {
		t.Error("CAS must have fence semantics")
	}
}

func TestSourceLocations(t *testing.T) {
	p := buildLoop()
	if loc := p.LocOf(0); loc.File != "loop.c" || loc.Line != 10 {
		t.Errorf("LocOf(0) = %v", loc)
	}
	if loc := p.LocOf(2); loc.Line != 12 {
		t.Errorf("LocOf(2) = %v, want line 12", loc)
	}
	if loc := p.LocOf(6); loc.Line != 14 {
		t.Errorf("LocOf(6) = %v, want line 14", loc)
	}
	if got := (SourceLoc{"loop.c", 12}).String(); got != "loop.c:12" {
		t.Errorf("SourceLoc.String() = %q", got)
	}
}

func TestFuncAt(t *testing.T) {
	p := buildLoop()
	f, ok := p.FuncAt(3)
	if !ok || f.Name != "main" {
		t.Errorf("FuncAt(3) = %+v, %v", f, ok)
	}
	if _, ok := p.FuncAt(100); ok {
		t.Error("FuncAt out of range should fail")
	}
}

func TestDisasmMentionsEveryOpcode(t *testing.T) {
	p := buildLoop()
	d := p.Disasm()
	for _, want := range []string{"li r1, 0", "ld64", "st64", "b.lt", "halt", "loop.c:12"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm missing %q:\n%s", want, d)
		}
	}
}

func TestCFGOfLoop(t *testing.T) {
	p := buildLoop()
	g := BuildCFG(p, p.Funcs[0])
	// Blocks: [li], [loop body...branch], [halt]
	if len(g.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3:\n%s", len(g.Blocks), p.Disasm())
	}
	body := g.Blocks[1]
	if len(body.Succs) != 2 {
		t.Fatalf("loop body succs = %v, want 2", body.Succs)
	}
	if g.BlockOf(2) != 1 {
		t.Errorf("BlockOf(2) = %d, want 1", g.BlockOf(2))
	}
}

func TestCFGReachable(t *testing.T) {
	p := buildLoop()
	g := BuildCFG(p, p.Funcs[0])
	r := g.Reachable([]int{1})
	if !r[1] || !r[2] {
		t.Errorf("reachable from loop body = %v", r)
	}
	if r[0] {
		t.Error("entry block should not be reachable from loop body")
	}
}

func TestPostDominators(t *testing.T) {
	p := buildLoop()
	g := BuildCFG(p, p.Funcs[0])
	pdom := g.PostDominators()
	// The halt block (2) post-dominates everything.
	for b := 0; b < 3; b++ {
		if !pdom[b][2] {
			t.Errorf("block 2 should post-dominate block %d", b)
		}
	}
	// The loop body does not post-dominate the exit.
	if pdom[2][1] {
		t.Error("loop body must not post-dominate exit")
	}
}

func TestDominators(t *testing.T) {
	p := buildLoop()
	g := BuildCFG(p, p.Funcs[0])
	dom := g.Dominators()
	for b := 0; b < 3; b++ {
		if !dom[b][0] {
			t.Errorf("entry should dominate block %d", b)
		}
	}
	if dom[0][2] {
		t.Error("exit must not dominate entry")
	}
}

// Property: in any CFG built from a random branchy program, every block's
// successor lists and predecessor lists are mutually consistent.
func TestCFGEdgeConsistencyProperty(t *testing.T) {
	f := func(branches []uint8) bool {
		b := NewBuilder().At("p.c", 1)
		b.Func("f")
		n := len(branches)%20 + 4
		for i := 0; i < n; i++ {
			b.Label(labelFor(i))
			b.AddI(1, 1, 1)
			if i < len(branches) {
				tgt := int(branches[i]) % n
				b.BranchI(Ne, 1, 0, labelFor(tgt))
			}
		}
		b.Label(labelFor(n)).Halt()
		p := b.Build()
		g := BuildCFG(p, p.Funcs[0])
		for _, blk := range g.Blocks {
			for _, s := range blk.Succs {
				if !contains(g.Blocks[s].Preds, blk.ID) {
					return false
				}
			}
			for _, pr := range blk.Preds {
				if !contains(g.Blocks[pr].Succs, blk.ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func labelFor(i int) string { return "L" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
