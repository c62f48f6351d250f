package machine

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The decoded program. New and SetProgram translate every instruction of
// the installed program once into an op: a kind specialized on the
// operand form plus the operands the executors read. Both executors —
// runBatch (serial and routed) and the engine's runSegment — switch on
// this form and charge each op its kind's static cost from the
// machine's cost table (the dilations already added); only their memory
// arms differ. The globally-visible opcodes decode to opGlobal and
// retire out of line through execGlobal, which reads the full isa.Instr.
//
// Next to the ops, New and SetProgram build the run table (runsOf): for
// every index, the maximal straight-line stretch of register-only ops
// that starts there, optionally closed by one branch or jump, with its
// length and its static cost. Only runSegment reads it: a run whose
// every op would start below the segment's hard bound retires with one
// bound check, one clock add and one step add, which is exactly what
// retiring its ops one at a time would do.

type opKind uint8

// Op kinds. The local kinds — everything before opLoad — touch only
// thread-local state and may retire past the batch limit during
// run-ahead (the isa.LocalOps rule); opKind.local tests it.
const (
	opNop    opKind = iota
	opPause         // spin-wait hint
	opIO            // timed wait: imm extra cycles
	opMovImm        // regs[d] = imm
	opMov           // regs[d] = regs[a]
	// Register-register ALU, in isa.ALUKind order (opAdd + kind).
	opAdd
	opSub
	opMul
	opDiv
	opAnd
	opOr
	opXor
	opShl
	opShr
	// Register-immediate ALU, in isa.ALUKind order (opAddI + kind).
	opAddI
	opSubI
	opMulI
	opDivI
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI
	opBranch  // if cond(regs[a], regs[b]) goto arg; cond in d
	opBranchI // if cond(regs[a], imm) goto arg; cond in d
	opJump    // goto arg
	opCall    // push pc+1; goto arg
	opRet
	opBadALU   // OpALU with an unknown ALU kind: panics when executed
	opLoad     // regs[d] = memory[regs[a]+imm], arg bytes
	opStore    // memory[regs[a]+imm] = regs[b], arg bytes
	opStoreImm // memory[regs[a]] = imm, arg bytes
	opGlobal   // atomics, fence, halt, SSB ops, alias check, unknown opcodes
	numOpKinds
)

// local reports whether the kind touches only thread-local state.
func (k opKind) local() bool { return k < opLoad }

// op is one decoded instruction. It is 16 bytes, so a program's decoded
// form stays a small allocation next to the program it came from.
type op struct {
	imm int64
	// arg is the control-transfer target (branches, jump, call) or the
	// access size in bytes (loads, stores).
	arg  int32
	kind opKind
	// d is the destination register — for a branch, which writes none,
	// its condition; a and b are the source registers.
	d, a, b isa.Reg
}

// opKinds maps each opcode to its kind; OpALU, OpStore and OpBranch are
// refined by operand form in decode.
var opKinds = [...]opKind{
	isa.OpNop:        opNop,
	isa.OpMovImm:     opMovImm,
	isa.OpMov:        opMov,
	isa.OpALU:        opAdd,
	isa.OpLoad:       opLoad,
	isa.OpStore:      opStore,
	isa.OpBranch:     opBranch,
	isa.OpJump:       opJump,
	isa.OpCall:       opCall,
	isa.OpRet:        opRet,
	isa.OpCAS:        opGlobal,
	isa.OpFetchAdd:   opGlobal,
	isa.OpFence:      opGlobal,
	isa.OpPause:      opPause,
	isa.OpIO:         opIO,
	isa.OpHalt:       opGlobal,
	isa.OpSSBLoad:    opGlobal,
	isa.OpSSBStore:   opGlobal,
	isa.OpSSBFlush:   opGlobal,
	isa.OpAliasCheck: opGlobal,
}

// decode translates p in one allocation. It never panics on malformed
// input: an opcode outside the ISA decodes to opGlobal (execGlobal
// rejects it), an unknown ALU kind to opBadALU, and an unknown branch
// condition panics in condHolds, so every such failure happens inside
// RunFor, which contains it as a *PanicError.
func decode(p *isa.Program) []op {
	ops := make([]op, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		o := &ops[i]
		o.imm, o.d, o.a, o.b = in.Imm, in.Rd, in.Rs1, in.Rs2
		o.kind = opGlobal
		if int(in.Op) < len(opKinds) {
			o.kind = opKinds[in.Op]
		}
		switch in.Op {
		case isa.OpALU:
			switch {
			case in.ALU > isa.Shr:
				o.kind = opBadALU
			case in.UseImm:
				o.kind = opAddI + opKind(in.ALU)
			default:
				o.kind = opAdd + opKind(in.ALU)
			}
		case isa.OpLoad:
			o.arg = int32(in.Size)
		case isa.OpStore:
			o.arg = int32(in.Size)
			if in.UseImm {
				o.kind = opStoreImm
			}
		case isa.OpBranch, isa.OpJump, isa.OpCall:
			o.arg = int32(in.Target)
			if int(o.arg) != in.Target {
				o.arg = -1 // beyond every program: the fetch panics
			}
			if in.Op == isa.OpBranch {
				o.d = isa.Reg(in.Cond)
				if in.UseImm {
					o.kind = opBranchI
				}
			}
		}
	}
	return ops
}

// opRun is the straight-line register code starting at one index of the
// decoded program (see runsOf).
type opRun struct {
	// cost is the clock the whole run adds. lead is the part charged
	// before its last op starts, so the run fits below a bound hard from
	// clock clk exactly when lead < hard-clk.
	cost uint64
	lead uint32
	// n is the run's length in ops; 0 when the op at this index is not a
	// register-only, branch or jump op.
	n uint32
}

// runsOf builds the run table of ops under costs, back to front: an op
// of kind opNop…opShrI heads the run of its successor when that
// successor is itself in a run, and a branch or jump is a run of one
// that closes every run reaching it. Loads, stores, calls, returns,
// bad-ALU and global ops belong to no run. An op's cost is its kind's
// (opIO adds its immediate); an opIO with a negative immediate, an op
// whose cost wraps, and an op that would push a run's lead past 32 bits
// end their run, so no partial sum of a run ever wraps.
func runsOf(ops []op, costs *opCosts) []opRun {
	runs := make([]opRun, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		o := &ops[i]
		k := o.kind
		if k > opJump { // calls, returns, bad ALU, memory and global ops
			continue
		}
		c := costs[k]
		last := k >= opBranch
		if k == opIO {
			c += uint64(o.imm)
			last = last || o.imm < 0 || c < costs[k]
		}
		r := opRun{cost: c, n: 1}
		if !last && i+1 < len(ops) {
			if nx := runs[i+1]; nx.n > 0 && c <= math.MaxUint32-uint64(nx.lead) {
				r = opRun{cost: c + nx.cost, lead: uint32(c) + nx.lead, n: nx.n + 1}
			}
		}
		runs[i] = r
	}
	return runs
}

// opCosts is the static cycle cost of every op kind under one machine's
// dilations: the kind's base cost plus ExtraInstrCycles, and
// ExtraLoadCycles for loads. opIO adds its immediate and opGlobal its
// opcode's own costs on top.
type opCosts [numOpKinds]uint64

func newOpCosts(cfg *Config) *opCosts {
	var c opCosts
	for k := range c {
		c[k] = cfg.ExtraInstrCycles
	}
	for k := opMovImm; k <= opShrI; k++ {
		c[k] += CostALU
	}
	c[opNop] += CostNop
	c[opPause] += CostPause
	c[opBranch] += CostBranch
	c[opBranchI] += CostBranch
	c[opJump] += CostBranch
	c[opCall] += CostCall
	c[opRet] += CostRet
	c[opLoad] += cfg.ExtraLoadCycles
	return &c
}

// execGlobal retires one instruction decoded as opGlobal (or opBadALU)
// on the serial retirement path and returns its cost beyond the kind's
// static one. Halt marks the thread halted; the
// caller removes it from its run queue.
func (m *Machine) execGlobal(t *thread, c int, in *isa.Instr) uint64 {
	switch in.Op {
	case isa.OpCAS:
		return m.execCAS(t, c, in)
	case isa.OpFetchAdd:
		return m.execFetchAdd(t, c, in)
	case isa.OpFence:
		return CostFence + m.fencePoint(t, c)
	case isa.OpHalt:
		cost := m.fencePoint(t, c) // make buffered state visible at exit
		t.halted = true
		return cost
	case isa.OpSSBLoad:
		v, cost := m.ssbLoad(t, c, in, mem.Addr(t.regs[in.Rs1]+in.Imm))
		t.regs[in.Rd] = int64(v)
		return cost + m.cfg.ExtraLoadCycles
	case isa.OpSSBStore:
		addr, v := mem.Addr(t.regs[in.Rs1]+in.Imm), uint64(t.regs[in.Rs2])
		if in.UseImm {
			addr, v = mem.Addr(t.regs[in.Rs1]), uint64(in.Imm)
		}
		return m.ssbStore(t, c, in, addr, v)
	case isa.OpSSBFlush:
		return m.startFlush(t, c)
	case isa.OpAliasCheck:
		return m.execAliasCheck(t, c, in)
	case isa.OpALU:
		panic(unknownALU(in, t.pc))
	}
	panic(fmt.Sprintf("machine: unknown opcode %v at %d", in.Op, t.pc))
}

// unknownALU is the panic message for an opBadALU instruction.
func unknownALU(in *isa.Instr, pc int) string {
	return fmt.Sprintf("machine: unknown ALU op %v at %d", in.ALU, pc)
}
