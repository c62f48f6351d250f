// Package isa defines the synthetic instruction set executed by the
// simulated machine. It stands in for x86 in the reproduction: programs
// carry PCs, source file:line metadata, and typed memory operations with
// sizes, which is exactly the information LASER extracts from real binaries
// (load/store sets, §4.3) and from debug info (aggregation by line, §4.2).
package isa

import (
	"fmt"

	"repro/internal/mem"
)

// Reg names one of the 32 integer registers. R31 is the stack pointer by
// convention (threads start with it pointing at their stack top).
type Reg uint8

// NumRegs is the size of the register file.
const NumRegs = 32

// SP is the conventional stack pointer register.
const SP Reg = 31

// String returns the assembler name of the register.
func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is the instruction opcode.
type Op uint8

// The instruction set. The SSB* pseudo-ops never appear in source
// programs; LASERREPAIR's rewriter inserts them (§5).
const (
	OpNop Op = iota
	OpMovImm
	OpMov
	OpALU
	OpLoad
	OpStore
	OpBranch
	OpJump
	OpCall
	OpRet
	OpCAS      // atomic compare-and-swap; acts as a full fence
	OpFetchAdd // atomic fetch-and-add; acts as a full fence
	OpFence
	OpPause // spin-wait hint
	OpIO    // blocking I/O or timed wait: costs Imm cycles, no memory effects
	OpHalt  // thread exit

	OpSSBLoad    // load that consults the software store buffer first
	OpSSBStore   // store redirected into the software store buffer
	OpSSBFlush   // flush the software store buffer (one HTM transaction)
	OpAliasCheck // validates speculative alias analysis for a load
)

var opNames = [...]string{
	OpNop: "nop", OpMovImm: "li", OpMov: "mov", OpALU: "alu",
	OpLoad: "ld", OpStore: "st", OpBranch: "b", OpJump: "j",
	OpCall: "call", OpRet: "ret", OpCAS: "cas", OpFetchAdd: "xadd",
	OpFence: "fence", OpPause: "pause", OpIO: "io", OpHalt: "halt",
	OpSSBLoad: "ssb.ld", OpSSBStore: "ssb.st", OpSSBFlush: "ssb.flush",
	OpAliasCheck: "aliaschk",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ALUKind selects the operation of an OpALU instruction.
type ALUKind uint8

// ALU operations.
const (
	Add ALUKind = iota
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
)

var aluNames = [...]string{"add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr"}

// String returns the mnemonic suffix.
func (k ALUKind) String() string {
	if int(k) < len(aluNames) {
		return aluNames[k]
	}
	return fmt.Sprintf("alu(%d)", uint8(k))
}

// Cond is the condition of an OpBranch, comparing Rs1 against Rs2 or Imm
// as signed 64-bit integers.
type Cond uint8

// Branch conditions.
const (
	Eq Cond = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the mnemonic suffix.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Unit says which text segment an instruction belongs to: the application
// binary or a shared library. LASERDETECT keeps HITM records from both and
// drops everything else (§4.1).
type Unit uint8

// Text units.
const (
	UnitApp Unit = iota
	UnitLib
)

// Instr is one decoded instruction. Semantics by Op:
//
//	MovImm   rd = imm
//	Mov      rd = rs1
//	ALU      rd = rs1 <alu> (rs2 | imm)
//	Load     rd = zeroextend(Mem[rs1+imm][:size])
//	Store    Mem[rs1+imm][:size] = rs2  (UseImm: store imm value)
//	Branch   if cond(rs1, rs2|imm) goto target
//	Jump     goto target
//	Call     push return; goto target
//	Ret      pop return
//	CAS      if Mem[rs1+imm][:size] == rs2 { Mem = rs3; rd = 1 } else { rd = Mem; rd=0 }  — atomic, fence
//	FetchAdd rd = Mem[rs1+imm][:size]; Mem += rs2 — atomic, fence
//
// SSB pseudo-ops mirror Load/Store/Fence with software-store-buffer
// semantics (Figure 6 of the paper); AliasCheck compares the effective
// address rs1+imm against the SSB's store lines and flushes on aliasing.
type Instr struct {
	Op     Op
	ALU    ALUKind
	Cond   Cond
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Rs3    Reg
	Imm    int64
	UseImm bool  // for ALU/Branch: compare/combine with Imm rather than Rs2; for Store: store Imm
	Size   uint8 // memory access size in bytes (1, 2, 4 or 8)
	Target int   // instruction index for Branch/Jump/Call

	Unit Unit     // text segment
	PC   mem.Addr // assigned by the builder
	File string   // source file for line-level aggregation
	Line int      // source line
}

// IsMem reports whether the instruction accesses data memory.
func (i *Instr) IsMem() bool {
	switch i.Op {
	case OpLoad, OpStore, OpCAS, OpFetchAdd, OpSSBLoad, OpSSBStore:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads data memory. CAS and
// FetchAdd both read and write, matching the paper's observation that an
// x86 instruction can be in both the load and store sets (§4.3).
func (i *Instr) IsLoad() bool {
	switch i.Op {
	case OpLoad, OpCAS, OpFetchAdd, OpSSBLoad:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (i *Instr) IsStore() bool {
	switch i.Op {
	case OpStore, OpCAS, OpFetchAdd, OpSSBStore:
		return true
	}
	return false
}

// IsFence reports whether the instruction has fence semantics under TSO.
// LASERREPAIR must flush the SSB at these points (§5.4).
func (i *Instr) IsFence() bool {
	switch i.Op {
	case OpFence, OpCAS, OpFetchAdd:
		return true
	}
	return false
}

// Terminates reports whether control does not fall through to the next
// instruction.
func (i *Instr) Terminates() bool {
	switch i.Op {
	case OpJump, OpRet, OpHalt:
		return true
	}
	return false
}

// String renders the instruction in assembler-like form.
func (i *Instr) String() string {
	switch i.Op {
	case OpNop, OpFence, OpPause, OpHalt, OpRet, OpSSBFlush:
		return i.Op.String()
	case OpIO:
		return fmt.Sprintf("io %d", i.Imm)
	case OpMovImm:
		return fmt.Sprintf("li %s, %d", i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", i.Rd, i.Rs1)
	case OpALU:
		if i.UseImm {
			return fmt.Sprintf("%s %s, %s, %d", i.ALU, i.Rd, i.Rs1, i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", i.ALU, i.Rd, i.Rs1, i.Rs2)
	case OpLoad, OpSSBLoad:
		return fmt.Sprintf("%s%d %s, [%s%+d]", i.Op, i.Size*8, i.Rd, i.Rs1, i.Imm)
	case OpStore, OpSSBStore:
		if i.UseImm {
			return fmt.Sprintf("%s%d [%s], $%d", i.Op, i.Size*8, i.Rs1, i.Imm)
		}
		return fmt.Sprintf("%s%d [%s%+d], %s", i.Op, i.Size*8, i.Rs1, i.Imm, i.Rs2)
	case OpBranch:
		if i.UseImm {
			return fmt.Sprintf("b.%s %s, %d, @%d", i.Cond, i.Rs1, i.Imm, i.Target)
		}
		return fmt.Sprintf("b.%s %s, %s, @%d", i.Cond, i.Rs1, i.Rs2, i.Target)
	case OpJump:
		return fmt.Sprintf("j @%d", i.Target)
	case OpCall:
		return fmt.Sprintf("call @%d", i.Target)
	case OpCAS:
		return fmt.Sprintf("cas%d %s, [%s%+d], %s, %s", i.Size*8, i.Rd, i.Rs1, i.Imm, i.Rs2, i.Rs3)
	case OpFetchAdd:
		return fmt.Sprintf("xadd%d %s, [%s%+d], %s", i.Size*8, i.Rd, i.Rs1, i.Imm, i.Rs2)
	case OpAliasCheck:
		return fmt.Sprintf("aliaschk [%s%+d]", i.Rs1, i.Imm)
	}
	return i.Op.String()
}

// Func records the half-open instruction index range of one function.
type Func struct {
	Name       string
	Start, End int
	Unit       Unit
}

// Program is an executable image: a flat instruction sequence spanning the
// application and library text units, with PCs assigned, plus function and
// source metadata.
type Program struct {
	Instrs []Instr
	Funcs  []Func

	// appSlot and libSlot are the PC index: the k-th instruction of a
	// text unit sits at the unit's base + k*InstrBytes, and its slot
	// holds that instruction's index in Instrs.
	appSlot, libSlot []int32
}

// AppTextSize returns the size in bytes of the application text segment.
func (p *Program) AppTextSize() mem.Addr { return mem.Addr(len(p.appSlot)) * mem.InstrBytes }

// LibTextSize returns the size in bytes of the library text segment.
func (p *Program) LibTextSize() mem.Addr { return mem.Addr(len(p.libSlot)) * mem.InstrBytes }

// IndexOf maps a PC back to an instruction index. ok is false for PCs that
// do not correspond to any instruction — exactly the "PC outside the
// binary" records LASERDETECT discards.
func (p *Program) IndexOf(pc mem.Addr) (int, bool) {
	slots, base := p.appSlot, mem.AppTextBase
	if pc >= mem.LibTextBase {
		slots, base = p.libSlot, mem.LibTextBase
	}
	if pc < base || (pc-base)%mem.InstrBytes != 0 {
		return 0, false
	}
	if k := (pc - base) / mem.InstrBytes; k < mem.Addr(len(slots)) {
		return int(slots[k]), true
	}
	return 0, false
}

// FuncAt returns the function containing instruction index idx.
func (p *Program) FuncAt(idx int) (Func, bool) {
	for _, f := range p.Funcs {
		if idx >= f.Start && idx < f.End {
			return f, true
		}
	}
	return Func{}, false
}

// SourceLoc is a file:line pair, the unit of aggregation in LASERDETECT's
// reports.
type SourceLoc struct {
	File string
	Line int
}

// String renders the location as file:line.
func (l SourceLoc) String() string { return fmt.Sprintf("%s:%d", l.File, l.Line) }

// LocOf returns the source location of instruction index idx.
func (p *Program) LocOf(idx int) SourceLoc {
	in := &p.Instrs[idx]
	return SourceLoc{File: in.File, Line: in.Line}
}

// Disasm renders the whole program, one instruction per line, with PCs and
// source locations; used by tests and the repair engine's debug output.
func (p *Program) Disasm() string {
	s := ""
	for i := range p.Instrs {
		in := &p.Instrs[i]
		s += fmt.Sprintf("%4d %#010x %-28s ; %s:%d\n", i, uint64(in.PC), in.String(), in.File, in.Line)
	}
	return s
}
