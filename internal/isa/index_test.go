package isa

import (
	"math"
	"testing"

	"repro/internal/mem"
)

// pcMap is the reference model of the PC index: a map from every
// instruction's PC to its index.
func pcMap(p *Program) map[mem.Addr]int {
	m := make(map[mem.Addr]int, len(p.Instrs))
	for i := range p.Instrs {
		m[p.Instrs[i].PC] = i
	}
	return m
}

// checkIndexOf requires IndexOf to agree with the reference map at pc.
func checkIndexOf(t *testing.T, p *Program, ref map[mem.Addr]int, pc mem.Addr) {
	t.Helper()
	want, wantOK := ref[pc]
	got, ok := p.IndexOf(pc)
	if ok != wantOK || (ok && got != want) {
		t.Errorf("IndexOf(%#x) = %d,%t, want %d,%t", uint64(pc), got, ok, want, wantOK)
	}
}

// unitsProgram builds a program of no-ops whose i-th instruction lies
// in the lib unit when bit 0 of units[i] is set and in the app unit
// otherwise.
func unitsProgram(units []byte) *Program {
	instrs := make([]Instr, len(units))
	for i, u := range units {
		instrs[i].Unit = Unit(u & 1)
	}
	return Rebuild(instrs, nil)
}

// TestIndexOfTable pins IndexOf to the map it replaced on every kind of
// PC a PEBS record can carry: each instruction's own PC, misaligned
// PCs, the gap between the text segments, below the app text, past the
// end of the lib text, and the empty program.
func TestIndexOfTable(t *testing.T) {
	b := NewBuilder().At("mix.c", 1)
	b.Func("main")
	b.Call("lock").Nop()
	b.InUnit(UnitLib).At("pthread.c", 10)
	b.Func("lock")
	b.Nop().Nop()
	b.InUnit(UnitApp).At("mix.c", 20)
	b.Func("tail")
	b.Nop().Halt()
	b.InUnit(UnitLib).At("pthread.c", 30)
	b.Func("unlock")
	b.Ret()
	interleaved := b.Build()
	if n := interleaved.AppTextSize() / mem.InstrBytes; n != 4 {
		t.Fatalf("interleaved program has %d app instructions, want 4", n)
	}
	if n := interleaved.LibTextSize() / mem.InstrBytes; n != 3 {
		t.Fatalf("interleaved program has %d lib instructions, want 3", n)
	}

	for _, c := range []struct {
		name string
		p    *Program
	}{
		{"loop", buildLoop()},
		{"interleaved", interleaved},
		{"lib only", unitsProgram([]byte{1, 1, 1})},
		{"empty builder", NewBuilder().Build()},
		{"empty rebuild", Rebuild(nil, nil)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			ref := pcMap(p)
			pcs := []mem.Addr{
				0, 1, mem.InstrBytes,
				mem.AppTextBase - mem.InstrBytes, mem.AppTextBase - 1,
				mem.AppTextBase, mem.AppTextBase + 1, mem.AppTextBase + 2, mem.AppTextBase + 3,
				mem.AppTextBase + p.AppTextSize(), mem.AppTextBase + p.AppTextSize() + mem.InstrBytes,
				(mem.AppTextBase + mem.LibTextBase) / 2,
				mem.LibTextBase - mem.InstrBytes, mem.LibTextBase - 1,
				mem.LibTextBase, mem.LibTextBase + 1, mem.LibTextBase + 3,
				mem.LibTextBase + p.LibTextSize(), mem.LibTextBase + p.LibTextSize() + 1,
				math.MaxUint64 - 3, math.MaxUint64,
			}
			for i := range p.Instrs {
				pc := p.Instrs[i].PC
				if got, ok := p.IndexOf(pc); !ok || got != i {
					t.Errorf("IndexOf(own PC %#x) = %d,%t, want %d,true", uint64(pc), got, ok, i)
				}
				pcs = append(pcs, pc+1, pc+2, pc+3, pc-1)
			}
			for _, pc := range pcs {
				checkIndexOf(t, p, ref, pc)
			}
		})
	}
}

// FuzzIndexOf checks IndexOf against the reference map on arbitrary
// programs and PCs. Spurious PEBS PCs scatter over the whole address
// space, so the raw PC is tried as is and folded next to each segment's
// base, where the table's edges are. The seed corpus is checked in
// under testdata/fuzz/FuzzIndexOf.
func FuzzIndexOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, units []byte, pc uint64) {
		p := unitsProgram(units)
		ref := pcMap(p)
		d := mem.Addr(pc%uint64(mem.InstrBytes*len(units)+64)) - 32
		for _, q := range []mem.Addr{mem.Addr(pc), mem.AppTextBase + d, mem.LibTextBase + d} {
			checkIndexOf(t, p, ref, q)
		}
	})
}
