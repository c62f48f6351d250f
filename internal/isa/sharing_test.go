package isa

import (
	"testing"

	"repro/internal/mem"
)

// TestStackAddrEscapes: storing a stack-derived value disqualifies the
// stacks; plain SP-relative traffic does not.
func TestStackAddrEscapes(t *testing.T) {
	stacks := []mem.Range{}
	for i := 0; i < 2; i++ {
		base, top, _ := mem.StackFor(i)
		stacks = append(stacks, mem.Range{Start: base, End: top})
	}

	clean := NewBuilder().At("s.c", 1)
	clean.Func("w")
	clean.AluI(Sub, 4, SP, 64)
	clean.Store(4, 0, 5, 8) // store *to* the stack: fine
	clean.Load(6, 4, 0, 8)
	clean.Halt()
	if StackAddrEscapes(clean.Build(), nil, stacks) {
		t.Error("SP-relative load/store flagged as escape")
	}

	leak := NewBuilder().At("s.c", 1)
	leak.Func("w")
	leak.AluI(Sub, 4, SP, 64)
	leak.Li(7, int64(mem.HeapBase))
	leak.Store(7, 0, 4, 8) // store the stack *address* to the heap
	leak.Halt()
	if !StackAddrEscapes(leak.Build(), nil, stacks) {
		t.Error("stack address stored to heap not flagged")
	}

	imm := NewBuilder().At("s.c", 1)
	imm.Func("w")
	_, _, sp := mem.StackFor(1)
	imm.Li(4, int64(sp)) // a literal foreign stack address
	imm.Load(5, 4, 0, 8)
	imm.Halt()
	if !StackAddrEscapes(imm.Build(), nil, stacks) {
		t.Error("stack-range immediate not flagged")
	}

	// A startup register inside a stack taints it: storing that value
	// escapes.
	seedLeak := NewBuilder().At("s.c", 1)
	seedLeak.Func("w")
	seedLeak.Li(7, int64(mem.HeapBase))
	seedLeak.Store(7, 0, 2, 8)
	seedLeak.Halt()
	base0, _, _ := mem.StackFor(0)
	seeds := []ThreadSeed{{Regs: map[Reg]int64{2: int64(base0 + 128)}}}
	if !StackAddrEscapes(seedLeak.Build(), seeds, stacks) {
		t.Error("seeded stack pointer stored to heap not flagged")
	}
}
