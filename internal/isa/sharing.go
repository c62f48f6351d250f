package isa

import (
	"repro/internal/mem"
)

// This file holds the two static privacy facts the machine's schedulers
// use: the per-opcode locality table and the stack escape analysis.
// Whether a memory access is private is decided at run time, by checking
// its effective address against the thread's private ranges.

// LocalOps marks the opcodes that touch only thread-local state
// (registers, pc, call stack, the core clock and global counters that are
// pure sums) — never shared memory, the coherence directory, the SSB/txn
// machinery or a probe. The serial scheduler's run-ahead and the
// decoded-op kinds (opKind.local) follow it.
var LocalOps = [...]bool{
	OpNop:        true,
	OpMovImm:     true,
	OpMov:        true,
	OpALU:        true,
	OpBranch:     true,
	OpJump:       true,
	OpCall:       true,
	OpRet:        true,
	OpPause:      true,
	OpIO:         true,
	OpAliasCheck: false,
	OpSSBFlush:   false,
}

// ThreadSeed is the per-thread input of StackAddrEscapes: the thread's
// startup registers (absent registers are zero, exactly as the machine
// initializes them).
type ThreadSeed struct {
	Regs map[Reg]int64
}

// StackAddrEscapes reports whether a stack address can become visible to
// another thread: a register that may hold a stack address (the stack
// pointer, a startup register pointing into a stack, or anything computed
// from one) is stored to memory as a value, or a stack address appears as
// an instruction immediate. When it returns false, thread stacks are
// provably thread-private — no other thread can ever name an address in
// them — and the engine may treat them as private ranges.
//
// The taint analysis is whole-program and flow-insensitive, which is
// conservative: a single escaping store anywhere disqualifies every
// stack. Loads are untainted — if no tainted value is ever stored, no
// load can observe a stack address, which is exactly the property being
// established.
func StackAddrEscapes(p *Program, seeds []ThreadSeed, stacks []mem.Range) bool {
	inStack := func(v int64) bool {
		for _, r := range stacks {
			if r.Contains(mem.Addr(v)) {
				return true
			}
		}
		return false
	}
	var tainted [256]bool
	tainted[SP] = true
	for _, s := range seeds {
		for r, v := range s.Regs {
			if inStack(v) {
				tainted[r] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range p.Instrs {
			in := &p.Instrs[i]
			switch in.Op {
			case OpMovImm:
				if inStack(in.Imm) {
					// A literal stack address in the text: anyone can
					// materialize it, so stacks are not private.
					return true
				}
			case OpMov:
				if tainted[in.Rs1] && !tainted[in.Rd] {
					tainted[in.Rd] = true
					changed = true
				}
			case OpALU:
				src := tainted[in.Rs1] || (!in.UseImm && tainted[in.Rs2])
				if in.UseImm && inStack(in.Imm) {
					return true
				}
				if src && !tainted[in.Rd] {
					tainted[in.Rd] = true
					changed = true
				}
			case OpStore, OpSSBStore:
				if in.UseImm {
					if inStack(in.Imm) {
						return true
					}
				} else if tainted[in.Rs2] {
					return true
				}
			case OpCAS:
				if tainted[in.Rs2] || tainted[in.Rs3] {
					return true
				}
			case OpFetchAdd:
				if tainted[in.Rs2] {
					return true
				}
			case OpLoad, OpSSBLoad:
				// Loads yield clean values under the no-escape premise.
			}
		}
	}
	return false
}
