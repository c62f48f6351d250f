package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestDecodeRuns pins the run table of a hand-built program: which ops
// head a run, how far each run reaches, and what it costs, with and
// without ExtraInstrCycles.
func TestDecodeRuns(t *testing.T) {
	b := isa.NewBuilder().At("runs.c", 1)
	b.Func("main")
	b.Label("l0")
	b.Li(1, 5)                      // 0
	b.AddI(1, 1, 1)                 // 1
	b.IO(7)                         // 2
	b.Nop()                         // 3
	b.Pause()                       // 4
	b.BranchI(isa.Lt, 1, 100, "l0") // 5: closes the run from 0
	b.Load(2, 0, 0, 8)              // 6
	b.Alu(isa.Mul, 3, 1, 1)         // 7: stops before the store
	b.Store(0, 0, 3, 8)             // 8
	b.Mov(4, 3)                     // 9
	b.IO(-5)                        // 10: a negative wait ends the run
	b.AddI(4, 4, 1)                 // 11: stops before the call
	b.Call("f")                     // 12
	b.Jump("l0")                    // 13
	b.Add(1, 1, 1)                  // 14: corrupted to a bad-ALU op below
	b.Fence()                       // 15
	b.AluI(isa.Xor, 1, 1, 3)        // 16: stops before the halt
	b.Halt()                        // 17
	b.Nop()                         // 18
	b.IO(1 << 33)                   // 19: its cost does not fit a run's lead
	b.Nop()                         // 20
	b.Li(6, 1)                      // 21
	b.Jump("l0")                    // 22: closes the run from 20
	b.AddI(6, 6, 1)                 // 23
	b.Halt()                        // 24
	b.Func("f")
	b.Li(5, 1) // 25: stops before the return
	b.Ret()    // 26
	prog := b.Build()
	prog.Instrs[14].ALU = isa.ALUKind(99)

	// Each op costs its base plus x = ExtraInstrCycles; a run's cost and
	// lead are c + k·x (mod 2^64, for the negative wait).
	type want struct {
		n           uint32
		cost, costX int64
		lead, leadX int64
	}
	wants := map[int]want{
		0:  {6, 15, 6, 14, 5},
		1:  {5, 14, 5, 13, 4},
		2:  {4, 13, 4, 12, 3},
		3:  {3, 6, 3, 5, 2},
		4:  {2, 5, 2, 4, 1},
		5:  {1, 1, 1, 0, 0},
		7:  {1, 1, 1, 0, 0},
		9:  {2, 1 - 5, 2, 1, 1},
		10: {1, -5, 1, 0, 0},
		11: {1, 1, 1, 0, 0},
		13: {1, 1, 1, 0, 0},
		16: {1, 1, 1, 0, 0},
		18: {2, 1 + 1<<33, 2, 1, 1},
		19: {1, 1 << 33, 1, 0, 0},
		20: {3, 3, 3, 2, 2},
		21: {2, 2, 2, 1, 1},
		22: {1, 1, 1, 0, 0},
		23: {1, 1, 1, 0, 0},
		25: {1, 1, 1, 0, 0},
	}
	for _, x := range []uint64{0, 3} {
		cfg := Config{ExtraInstrCycles: x}
		ops := decode(prog)
		if ops[14].kind != opBadALU {
			t.Fatalf("op 14 decoded to kind %d, want opBadALU", ops[14].kind)
		}
		runs := runsOf(ops, newOpCosts(&cfg))
		for i, r := range runs {
			w := wants[i] // the zero want: no run
			wr := opRun{
				n:    w.n,
				cost: uint64(w.cost) + uint64(w.costX)*x,
				lead: uint32(uint64(w.lead) + uint64(w.leadX)*x),
			}
			if w.n == 0 {
				wr = opRun{}
			}
			if r != wr {
				t.Errorf("x=%d op %d: run %+v, want %+v", x, i, r, wr)
			}
		}
	}
}

// runBoundaryProg is mostly straight-line register code: zero-cost waits
// (IO(0) at ExtraInstrCycles 0, one of them the last op of its run),
// spin hints, division by zero, a jump, and branch-closed inner loops,
// with one shared store per outer iteration so the threads' segments end
// at global events too.
func runBoundaryProg() (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("bounds.c", 1)
	b.Func("worker")
	b.Li(1, 0)
	b.Label("top")
	b.IO(0)
	b.AddI(2, 2, 3)
	b.Pause()
	b.AluI(isa.Div, 3, 2, 0)
	b.Alu(isa.Div, 4, 2, 3)
	b.IO(0)
	b.Jump("over")
	b.AddI(7, 7, 1) // skipped
	b.Label("over")
	b.Li(5, 0)
	b.Label("inner")
	b.AddI(5, 5, 1)
	b.MulI(6, 5, 7)
	b.IO(0)
	b.IO(2)
	b.BranchI(isa.Lt, 5, 3, "inner")
	b.AddI(8, 8, 1)
	b.IO(0) // a run that ends in a zero-cost op
	b.Store(0, 0, 2, 8)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, 40, "top")
	b.Halt()
	prog := b.Build()
	specs := make([]ThreadSpec, 3)
	for i := range specs {
		specs[i] = ThreadSpec{Regs: map[isa.Reg]int64{
			0: int64(mem.HeapBase + mem.Addr(i*8)),
			2: int64(i),
		}}
	}
	return prog, specs
}

// TestEngineRunBoundaries: the engine retires whole runs only when every
// op of the run starts below the segment's bound, so a run cut by a
// RunFor boundary at any cycle — including right before a zero-cost op —
// must leave exactly the state one-at-a-time retirement leaves. Every
// stride from 1 to 17 cycles puts the boundary at every offset inside
// the program's runs; at each boundary the engine must agree with the
// serial scheduler sliced the same way, and at the end with the serial
// scheduler's uninterrupted run.
func TestEngineRunBoundaries(t *testing.T) {
	prog, specs := runBoundaryProg()
	same := func(m, ref *Machine) string {
		if got, want := m.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("stats %+v, want %+v", got, want)
		}
		if got, want := m.CoherenceCounts(), ref.CoherenceCounts(); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("coherence counts %v, want %v", got, want)
		}
		for tid := range specs {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if got, want := m.Reg(tid, r), ref.Reg(tid, r); got != want {
					return fmt.Sprintf("thread %d r%d = %d, want %d", tid, r, got, want)
				}
			}
		}
		return ""
	}
	for _, extra := range []uint64{0, 3} {
		cfg := Config{Cores: len(specs), ExtraInstrCycles: extra}
		whole := New(prog, cfg, specs)
		if _, err := whole.Run(); err != nil {
			t.Fatal(err)
		}
		pcfg := cfg
		pcfg.Parallelism = 2
		for stride := uint64(1); stride <= 17; stride++ {
			serial := New(prog, cfg, specs)
			m := forceDispatch(New(prog, pcfg, specs))
			if !m.IntraRunParallel() {
				t.Fatal("parallel engine not engaged")
			}
			for target := stride; ; target += stride {
				done, err := m.RunFor(target)
				if err != nil {
					t.Fatal(err)
				}
				sdone, err := serial.RunFor(target)
				if err != nil {
					t.Fatal(err)
				}
				if diff := same(m, serial); diff != "" || done != sdone {
					t.Fatalf("extra=%d stride=%d target=%d: done %v (serial %v); %s",
						extra, stride, target, done, sdone, diff)
				}
				if done {
					break
				}
			}
			if diff := same(m, whole); diff != "" {
				t.Fatalf("extra=%d stride=%d: against the uninterrupted run: %s", extra, stride, diff)
			}
		}
	}
}
