package isa

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Builder assembles a Program. Instructions are appended in order; labels
// are resolved at Build time; PCs are assigned per text unit. The builder
// panics on misuse (undefined label, function nesting errors) because a
// malformed program is a bug in the workload definition, not an input.
type Builder struct {
	instrs   []Instr
	funcs    []Func
	labels   map[string]int
	fixups   []fixup
	file     string
	line     int
	unit     Unit
	openFunc int // index into funcs of the currently open function, or -1
}

type fixup struct {
	instr int
	label string
}

// NewBuilder returns an empty builder positioned in the application unit.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int), openFunc: -1}
}

// At sets the source file and line attributed to subsequent instructions.
func (b *Builder) At(file string, line int) *Builder {
	b.file, b.line = file, line
	return b
}

// Line sets only the source line.
func (b *Builder) Line(line int) *Builder {
	b.line = line
	return b
}

// InUnit switches the text unit (application or library) for subsequent
// instructions and functions.
func (b *Builder) InUnit(u Unit) *Builder {
	b.unit = u
	return b
}

// Func opens a new function with the given name. The previous function, if
// any, is closed. Returns its global label (the function name is usable as
// a jump/call label).
func (b *Builder) Func(name string) *Builder {
	b.closeFunc()
	b.Label(name)
	b.funcs = append(b.funcs, Func{Name: name, Start: len(b.instrs), Unit: b.unit})
	b.openFunc = len(b.funcs) - 1
	return b
}

func (b *Builder) closeFunc() {
	if b.openFunc >= 0 {
		b.funcs[b.openFunc].End = len(b.instrs)
		b.openFunc = -1
	}
}

// Label defines a label at the next instruction position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
	return b
}

// Pos returns the index the next instruction will occupy.
func (b *Builder) Pos() int { return len(b.instrs) }

// Grow reserves room for n more instructions, so a caller that knows
// how much it will emit appends without regrowing the buffer.
func (b *Builder) Grow(n int) *Builder {
	b.instrs = slices.Grow(b.instrs, n)
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	in.Unit = b.unit
	in.File = b.file
	in.Line = b.line
	b.instrs = append(b.instrs, in)
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: OpNop}) }

// Li loads an immediate into rd.
func (b *Builder) Li(rd Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpMovImm, Rd: rd, Imm: imm})
}

// LiAddr loads an address immediate into rd.
func (b *Builder) LiAddr(rd Reg, a mem.Addr) *Builder { return b.Li(rd, int64(a)) }

// Mov copies rs into rd.
func (b *Builder) Mov(rd, rs Reg) *Builder {
	return b.emit(Instr{Op: OpMov, Rd: rd, Rs1: rs})
}

// Alu emits rd = rs1 <k> rs2.
func (b *Builder) Alu(k ALUKind, rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: OpALU, ALU: k, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AluI emits rd = rs1 <k> imm.
func (b *Builder) AluI(k ALUKind, rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Instr{Op: OpALU, ALU: k, Rd: rd, Rs1: rs1, Imm: imm, UseImm: true})
}

// Add, Sub, Mul and friends are sugar over AluI/Alu for the common cases.
func (b *Builder) AddI(rd, rs Reg, imm int64) *Builder { return b.AluI(Add, rd, rs, imm) }

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) *Builder { return b.Alu(Add, rd, rs1, rs2) }

// MulI emits rd = rs * imm.
func (b *Builder) MulI(rd, rs Reg, imm int64) *Builder { return b.AluI(Mul, rd, rs, imm) }

// Load emits rd = Mem[base+off][:size].
func (b *Builder) Load(rd, base Reg, off int64, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpLoad, Rd: rd, Rs1: base, Imm: off, Size: size})
}

// Store emits Mem[base+off][:size] = rs.
func (b *Builder) Store(base Reg, off int64, rs Reg, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpStore, Rs1: base, Imm: off, Rs2: rs, Size: size})
}

// StoreI emits Mem[base][:size] = imm. The base register carries the full
// effective address (no displacement, to keep UseImm unambiguous).
func (b *Builder) StoreI(base Reg, imm int64, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpStore, Rs1: base, Imm: imm, UseImm: true, Size: size})
}

// Branch emits a conditional branch comparing rs1 to rs2.
func (b *Builder) Branch(c Cond, rs1, rs2 Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.instrs), label})
	return b.emit(Instr{Op: OpBranch, Cond: c, Rs1: rs1, Rs2: rs2})
}

// BranchI emits a conditional branch comparing rs1 to an immediate.
func (b *Builder) BranchI(c Cond, rs1 Reg, imm int64, label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.instrs), label})
	return b.emit(Instr{Op: OpBranch, Cond: c, Rs1: rs1, Imm: imm, UseImm: true})
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.instrs), label})
	return b.emit(Instr{Op: OpJump})
}

// Call emits a call to the function labelled name.
func (b *Builder) Call(name string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.instrs), name})
	return b.emit(Instr{Op: OpCall})
}

// Ret returns from the current function.
func (b *Builder) Ret() *Builder { return b.emit(Instr{Op: OpRet}) }

// CAS emits an atomic compare-and-swap: rd=1 and Mem=rs3 if Mem==rs2,
// else rd=0.
func (b *Builder) CAS(rd, base Reg, off int64, expect, new Reg, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpCAS, Rd: rd, Rs1: base, Imm: off, Rs2: expect, Rs3: new, Size: size})
}

// FetchAdd emits an atomic rd = Mem; Mem += rs.
func (b *Builder) FetchAdd(rd, base Reg, off int64, rs Reg, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpFetchAdd, Rd: rd, Rs1: base, Imm: off, Rs2: rs, Size: size})
}

// SSBLoad emits a load that consults the software store buffer first.
// Normally only LASERREPAIR's rewriter creates these.
func (b *Builder) SSBLoad(rd, base Reg, off int64, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpSSBLoad, Rd: rd, Rs1: base, Imm: off, Size: size})
}

// SSBStore emits a store redirected into the software store buffer.
func (b *Builder) SSBStore(base Reg, off int64, rs Reg, size uint8) *Builder {
	checkSize(size)
	return b.emit(Instr{Op: OpSSBStore, Rs1: base, Imm: off, Rs2: rs, Size: size})
}

// SSBFlush emits a software-store-buffer flush point.
func (b *Builder) SSBFlush() *Builder { return b.emit(Instr{Op: OpSSBFlush}) }

// AliasCheck emits a speculative-alias-analysis validation of the address
// base+off against the SSB (§5.3 of the paper).
func (b *Builder) AliasCheck(base Reg, off int64) *Builder {
	return b.emit(Instr{Op: OpAliasCheck, Rs1: base, Imm: off})
}

// Fence emits a full memory fence.
func (b *Builder) Fence() *Builder { return b.emit(Instr{Op: OpFence}) }

// Pause emits a spin-wait hint.
func (b *Builder) Pause() *Builder { return b.emit(Instr{Op: OpPause}) }

// IO emits a blocking I/O or timed wait costing the given cycles. It
// models read()/condition-variable waits without touching memory.
func (b *Builder) IO(cycles int64) *Builder {
	return b.emit(Instr{Op: OpIO, Imm: cycles})
}

// Halt terminates the executing thread.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: OpHalt}) }

func checkSize(size uint8) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("isa: bad memory access size %d", size))
	}
}

// Rebuild assembles a Program directly from instruction and function
// slices whose branch/jump/call Targets are already instruction indices.
// PCs are (re)assigned with the standard unit layout, and the PC index
// is filled in the same pass. LASERREPAIR's rewriter uses this to emit
// instrumented code, the way Pin regenerates relocated traces.
func Rebuild(instrs []Instr, funcs []Func) *Program {
	nApp := 0
	for i := range instrs {
		if instrs[i].Unit == UnitApp {
			nApp++
		}
	}
	// One allocation backs both units' slot tables.
	slots := make([]int32, len(instrs))
	p := &Program{Instrs: instrs, Funcs: funcs, appSlot: slots[:0:nApp], libSlot: slots[nApp:nApp]}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Unit {
		case UnitApp:
			in.PC = mem.AppTextBase + mem.Addr(len(p.appSlot))*mem.InstrBytes
			p.appSlot = append(p.appSlot, int32(i))
		case UnitLib:
			in.PC = mem.LibTextBase + mem.Addr(len(p.libSlot))*mem.InstrBytes
			p.libSlot = append(p.libSlot, int32(i))
		}
	}
	return p
}

// Build resolves labels and assigns PCs. App-unit instructions receive
// consecutive PCs from mem.AppTextBase; lib-unit instructions from
// mem.LibTextBase. Build panics on undefined labels.
func (b *Builder) Build() *Program {
	b.closeFunc()
	for _, f := range b.fixups {
		tgt, ok := b.labels[f.label]
		if !ok {
			panic(fmt.Sprintf("isa: undefined label %q", f.label))
		}
		b.instrs[f.instr].Target = tgt
	}
	return Rebuild(b.instrs, b.funcs)
}
