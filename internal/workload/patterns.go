package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
)

// This file holds the building blocks the synthetic benchmarks are
// composed from. Conventions: r20 is the loop counter, r21..r27 scratch;
// r0..r9 carry per-thread data pointers from the thread specs.

const (
	regCtr isa.Reg = 20
	regVal isa.Reg = 21
	regTmp isa.Reg = 22
	regT2  isa.Reg = 23
	regT3  isa.Reg = 24
	regAux isa.Reg = 25
)

// patternSeq is atomic because the experiment harness builds independent
// workload images concurrently. Label names only need to be unique, not
// reproducible: they never reach a report or affect the built program's
// semantics.
var patternSeq atomic.Int64

// uniqueLabel generates a program-wide unique label.
func uniqueLabel(stem string) string {
	return fmt.Sprintf("%s_%d", stem, patternSeq.Add(1))
}

// kernel describes one iteration of a private compute loop: how many
// loads, ALU operations, multiplies/divides and stores it performs on
// thread-private data (base register r0 for loads, r1 for stores). The
// mix shapes each benchmark's profile under the VTune load-sampling model.
type kernel struct {
	loads  int
	alus   int
	muls   int
	stores int
}

// emitKernelBody emits one iteration's private work.
func emitKernelBody(b *isa.Builder, k kernel) {
	for i := 0; i < k.loads; i++ {
		b.Load(regVal, 0, int64(i%8)*8, 8)
	}
	for i := 0; i < k.alus; i++ {
		b.AluI(isa.Add, regTmp, regTmp, int64(i)+1)
	}
	for i := 0; i < k.muls; i++ {
		b.AluI(isa.Mul, regT2, regT2, 7)
		b.AluI(isa.Div, regT2, regT2, 3)
	}
	for i := 0; i < k.stores; i++ {
		b.Store(1, int64(i%8)*8, regTmp, 8)
	}
}

// emitCountedLoop wraps body in a loop of iters iterations using regCtr.
func emitCountedLoop(b *isa.Builder, iters int64, body func()) {
	top := uniqueLabel("loop")
	b.Li(regCtr, 0)
	b.Label(top)
	body()
	b.AddI(regCtr, regCtr, 1)
	b.BranchI(isa.Lt, regCtr, iters, top)
}

// emitAuxShared emits a rate-limited read-modify-write of a shared 8-byte
// counter at [base+off], executed once every (mask+1) loop iterations.
// This is the "moderate contention" pattern behind most of LASER's Table 1
// false positives: real sharing, hot enough to cross LASER's 1K HITMs/s
// bar but too cool for VTune's 2K bar.
func emitAuxShared(b *isa.Builder, base isa.Reg, off int64, mask int64) {
	skip := uniqueLabel("aux_skip")
	b.AluI(isa.And, regAux, regCtr, mask)
	b.BranchI(isa.Ne, regAux, 0, skip)
	b.Load(regT3, base, off, 8)
	b.AddI(regT3, regT3, 1)
	b.Store(base, off, regT3, 8)
	b.Label(skip)
}

// emitSharedRMW emits an unconditional load-increment-store of a shared
// 8-byte location — the canonical read-write sharing pattern.
func emitSharedRMW(b *isa.Builder, base isa.Reg, off int64) {
	b.Load(regVal, base, off, 8)
	b.AddI(regVal, regVal, 1)
	b.Store(base, off, regVal, 8)
}

// emitStoreOnly emits a register-cached store (no load): the write-write
// pattern that -O3 turns linear_regression into (§7.4.1).
func emitStoreOnly(b *isa.Builder, base isa.Reg, off int64, src isa.Reg) {
	b.Store(base, off, src, 8)
}

// emitColdCode appends never-executed code: the bulk of a realistic
// binary. Spurious PEBS PCs scatter uniformly over the binary (§3.1), so
// binary size controls how concentrated record noise is on any one line.
// Emitted after a Halt and never branched to.
func emitColdCode(b *isa.Builder, file string, lines int) {
	b.At(file, 5000)
	b.Func(uniqueLabel("cold"))
	b.Grow(2*lines + 1) // two instructions per line, then the Ret
	for i := 0; i < lines; i++ {
		b.Line(5000 + i)
		switch i % 4 {
		case 0:
			b.Load(regVal, 0, int64(i%64)*8, 8)
			b.AddI(regVal, regVal, 3)
		case 1:
			b.AluI(isa.Mul, regTmp, regTmp, 5)
			b.Store(1, int64(i%64)*8, regTmp, 8)
		case 2:
			b.AluI(isa.Xor, regT2, regT2, int64(i))
			b.AluI(isa.Shl, regT2, regT2, 1)
		case 3:
			b.Load(regT3, 1, int64(i%32)*8, 4)
			b.Store(0, int64(i%32)*8, regT3, 4)
		}
	}
	b.Ret()
}

// emitWorkQuantum burns roughly cycles of private compute (4 cycles per
// unit: two ALU ops and loop overhead).
func emitWorkQuantum(b *isa.Builder, units int64) {
	if units <= 0 {
		return
	}
	top := uniqueLabel("work")
	b.Li(regT3, 0)
	b.Label(top)
	b.AluI(isa.Add, regT2, regT2, 1)
	b.AluI(isa.Xor, regT2, regT2, 3)
	b.AddI(regT3, regT3, 1)
	b.BranchI(isa.Lt, regT3, units, top)
}

// barrierCall emits a barrier wait: address in r10, thread count in r11.
func barrierCall(b *isa.Builder, lib Lib, barrier int64, threads int64) {
	b.Li(regArg0, barrier)
	b.Li(regArg1, threads)
	b.Call(lib.BarrierWait)
}

// lockCall/unlockCall emit naive-mutex operations on the lock at addr.
func lockCall(b *isa.Builder, lib Lib, addr int64) {
	b.Li(regArg0, addr)
	b.Call(lib.MutexLock)
}

func unlockCall(b *isa.Builder, lib Lib, addr int64) {
	b.Li(regArg0, addr)
	b.Call(lib.MutexUnlock)
}

// ttasLockCall/ttasUnlockCall use the test-and-test-and-set lock.
func ttasLockCall(b *isa.Builder, lib Lib, addr int64) {
	b.Li(regArg0, addr)
	b.Call(lib.TTASLock)
}

func ttasUnlockCall(b *isa.Builder, lib Lib, addr int64) {
	b.Li(regArg0, addr)
	b.Call(lib.TTASUnlock)
}
