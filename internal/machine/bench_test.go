package machine

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// benchProg builds a 4-thread workload with the access mix the simulator
// spends its time on during the evaluation: each thread streams through a
// private buffer with loads, stores and ALU work, and every iteration also
// writes its slot of one falsely shared cache line, so the HITM ping-pong
// is constant but not the only traffic. The loop is effectively infinite
// so the benchmark can draw as many instructions as it needs.
func benchProg() (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("bench.c", 1)
	entries := make([]int, 4)
	for tid := 0; tid < 4; tid++ {
		b.Func(fmt.Sprintf("worker%d", tid))
		entries[tid] = b.Pos()
		b.Li(1, 0)
		loop := fmt.Sprintf("loop%d", tid)
		b.Label(loop)
		// Private working set: buf[i & 127] update (reg 4 scratch).
		b.AluI(isa.And, 4, 1, 127)
		b.AluI(isa.Shl, 4, 4, 3)
		b.Add(4, 4, 2)
		b.Load(5, 4, 0, 8)
		b.Add(5, 5, 1)
		b.Store(4, 0, 5, 8)
		// Falsely shared line: this thread's 8-byte slot.
		b.Store(0, 0, 1, 8)
		// Per-thread filler de-phases the threads, as in real workloads
		// where sibling threads never run in perfect lockstep.
		for f := 0; f < tid; f++ {
			b.AluI(isa.Xor, 6, 6, int64(f)+1)
		}
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, 1<<60, loop)
		b.Halt()
	}
	prog := b.Build()
	specs := make([]ThreadSpec, 4)
	for i := range specs {
		specs[i] = ThreadSpec{
			Entry: entries[i],
			Regs: map[isa.Reg]int64{
				0: int64(mem.HeapBase + mem.Addr(i*8)),            // shared-line slot
				2: int64(mem.HeapBase + 0x1000 + mem.Addr(i)<<12), // private buffer
			},
		}
	}
	return prog, specs
}

// aluProg is a swaptions-shaped pure-ALU loop with no memory traffic:
// the executor's dispatch cost with nothing else in the way.
func aluProg() (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("alu_bench.c", 1)
	entries := make([]int, 4)
	for tid := 0; tid < 4; tid++ {
		b.Func(fmt.Sprintf("aluworker%d", tid))
		entries[tid] = b.Pos()
		b.Li(1, 0)
		loop := fmt.Sprintf("aluloop%d", tid)
		b.Label(loop)
		b.AluI(isa.Mul, 4, 4, 1103515245)
		b.AluI(isa.Add, 4, 4, 12345)
		b.AluI(isa.Shr, 5, 4, 16)
		b.AluI(isa.Mul, 5, 5, 3)
		b.AluI(isa.Div, 5, 5, 7)
		b.Add(6, 6, 5)
		b.AddI(1, 1, 1)
		b.BranchI(isa.Lt, 1, 1<<60, loop)
		b.Halt()
	}
	prog := b.Build()
	specs := make([]ThreadSpec, 4)
	for i := range specs {
		specs[i] = ThreadSpec{Entry: entries[i]}
	}
	return prog, specs
}

// benchMachine runs prog on the serial scheduler in RunFor slices until
// b.N instructions have retired. One op is one simulated instruction.
func benchMachine(b *testing.B, prog *isa.Program, specs []ThreadSpec) {
	b.Helper()
	m := New(prog, Config{Cores: 4, MaxCycles: 1 << 62}, specs)
	var target uint64
	const slice = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for m.stats.Instructions < uint64(b.N) {
		target += slice
		if _, err := m.RunFor(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineStep measures the end-to-end per-instruction cost of the
// simulator — scheduler, executor, coherence and memory — on a contended
// 4-thread workload.
func BenchmarkMachineStep(b *testing.B) {
	prog, specs := benchProg()
	benchMachine(b, prog, specs)
}

// BenchmarkMachineStepALU measures the executor alone on register-only
// code.
func BenchmarkMachineStepALU(b *testing.B) {
	prog, specs := aluProg()
	benchMachine(b, prog, specs)
}

// BenchmarkMemoryLoadStore measures the raw backing-store path: one op is
// one 8-byte store plus one 8-byte load. It must run at 0 allocs/op.
func BenchmarkMemoryLoadStore(b *testing.B) {
	m := newMemory()
	// Touch a few pages across the canonical regions up front.
	addrs := [8]mem.Addr{}
	for i := range addrs {
		base := mem.HeapBase
		if i%2 == 1 {
			base = mem.StackBase
		}
		addrs[i] = base + mem.Addr(i)*pageSize + mem.Addr(i*8)
		m.store(addrs[i], 8, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		a := addrs[i&7]
		m.store(a, 8, uint64(i))
		sink += m.load(a, 8)
	}
	_ = sink
}
