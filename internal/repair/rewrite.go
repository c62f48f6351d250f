package repair

import (
	"repro/internal/isa"
)

// Rewrite materializes a Plan: it emits a new program with SSB pseudo-ops
// substituted in the contending region, alias checks ahead of exempted
// loads, and flushes at the planned points. It returns the rewritten
// program plus the forward map (old index → new index; for a target with
// inserted instructions, the first insert) and the reverse map (new index
// → the old index it descends from). plan.FlushBefore must be sorted
// and free of repeats, as Analyze and MergePlans emit it.
func Rewrite(prog *isa.Program, plan *Plan) (*isa.Program, []int, []int) {
	// Every inserted instruction is a flush or an alias check, so the
	// output's final size is known before the first append.
	n := len(prog.Instrs) + len(plan.FlushBefore) + len(plan.CheckBefore)
	out := make([]isa.Instr, 0, n)
	rev := make([]int, 0, n)
	fwd := make([]int, len(prog.Instrs)+1)
	// Walk the sorted flush points alongside the instructions.
	flushes := plan.FlushBefore
	for i := range prog.Instrs {
		in := prog.Instrs[i] // copy
		fwd[i] = len(out)
		if len(flushes) > 0 && flushes[0] == i {
			flushes = flushes[1:]
			fl := isa.Instr{Op: isa.OpSSBFlush, Unit: in.Unit, File: in.File, Line: in.Line}
			out = append(out, fl)
			rev = append(rev, i)
		}
		if plan.CheckBefore[i] {
			chk := isa.Instr{Op: isa.OpAliasCheck, Rs1: in.Rs1, Imm: in.Imm,
				Unit: in.Unit, File: in.File, Line: in.Line}
			out = append(out, chk)
			rev = append(rev, i)
		}
		if plan.Instrument[i] {
			switch in.Op {
			case isa.OpLoad:
				in.Op = isa.OpSSBLoad
			case isa.OpStore:
				in.Op = isa.OpSSBStore
			}
		}
		out = append(out, in)
		rev = append(rev, i)
	}
	fwd[len(prog.Instrs)] = len(out) // one-past-end maps for Func.End
	// Retarget branches, jumps and calls.
	for i := range out {
		switch out[i].Op {
		case isa.OpBranch, isa.OpJump, isa.OpCall:
			out[i].Target = fwd[out[i].Target]
		}
	}
	funcs := make([]isa.Func, len(prog.Funcs))
	for i, f := range prog.Funcs {
		funcs[i] = isa.Func{Name: f.Name, Start: fwd[f.Start], End: fwd[f.End], Unit: f.Unit}
	}
	return isa.Rebuild(out, funcs), fwd, rev
}
