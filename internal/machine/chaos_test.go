package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// chaosProg builds a two-thread program whose first thread loops over
// private ALU work and then executes a deliberately corrupted
// instruction; the second thread runs the same loop and halts cleanly.
// corrupt rewrites one instruction of the built program in place.
func chaosProg(iters int64, corrupt func(in *isa.Instr)) (*isa.Program, []ThreadSpec) {
	b := isa.NewBuilder().At("chaos.c", 1)
	b.Func("boom")
	b.Li(1, 0)
	b.Label("loop").Line(2)
	b.AddI(1, 1, 1)
	b.BranchI(isa.Lt, 1, iters, "loop")
	b.Nop() // the instruction chaos tests corrupt (index 4)
	b.Halt()
	prog := b.Build()
	corrupt(&prog.Instrs[4])
	return prog, []ThreadSpec{{Entry: 0}, {Entry: 0}}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (plus a tolerance for unrelated runtime goroutines), failing the
// test if it never does — the leak assertion shared by the containment
// tests below.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A panicking workload on the serial scheduler must come back as a
// *PanicError, not unwind into the caller. Each malformed shape must
// also get through New: decoding never panics, executing does.
func TestRunPanicContainedSerial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(in *isa.Instr)
	}{
		{"opcode", func(in *isa.Instr) { in.Op = isa.Op(250) }},
		{"alu kind", func(in *isa.Instr) { in.Op, in.ALU = isa.OpALU, isa.ALUKind(200) }},
		{"branch condition", func(in *isa.Instr) { in.Op, in.Cond = isa.OpBranch, isa.Cond(99) }},
		{"jump target", func(in *isa.Instr) { in.Op, in.Target = isa.OpJump, 1<<40 }},
	} {
		prog, specs := chaosProg(100, tc.corrupt)
		m := New(prog, Config{Cores: 2}, specs)
		_, err := m.Run()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: Run() = %v, want *PanicError", tc.name, err)
		}
		if !strings.Contains(pe.Error(), "machine: panic during run") {
			t.Errorf("%s: PanicError = %q, want the contained-panic message", tc.name, pe)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: PanicError carries no stack", tc.name)
		}
	}
}

// The same containment under the intra-run parallel engine: the panic
// surfaces on the scheduler goroutine (a corrupted opcode is a global
// event, retired serially), the worker pool is joined on the way out,
// and no goroutine leaks.
func TestEnginePanicContainedAndJoined(t *testing.T) {
	prog, specs := chaosProg(50_000, func(in *isa.Instr) { in.Op = isa.Op(250) })
	base := runtime.NumGoroutine()
	m := New(prog, Config{Cores: 2, Parallelism: 4}, specs)
	if !m.IntraRunParallel() {
		t.Fatal("engine not engaged")
	}
	forceDispatch(m)
	_, err := m.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run() = %v, want *PanicError", err)
	}
	if m.eng.jobs != nil {
		t.Error("worker pool not torn down after contained panic")
	}
	waitGoroutines(t, base)
}

// A panic raised inside a dispatched segment on a worker goroutine must
// not kill the process or deadlock settleAll: the worker records the
// fault, still signals done, consume promotes it to the run's failure,
// and stopPool joins the pool. This drives the worker path directly so
// the test does not depend on the dispatch heuristics.
func TestEngineWorkerPanicPropagates(t *testing.T) {
	// OpALU with an unregistered ALU kind panics inside runSegment
	// itself — the segment interpreter, which is what workers execute.
	prog, specs := chaosProg(10, func(in *isa.Instr) {
		in.Op = isa.OpALU
		in.ALU = isa.ALUKind(200)
	})
	base := runtime.NumGoroutine()
	m := New(prog, Config{Cores: 2, Parallelism: 2}, specs)
	e := m.eng
	if e == nil {
		t.Fatal("engine not engaged")
	}
	e.target = ^uint64(0)
	// Jump thread 0 straight to the corrupted instruction and ship its
	// segment to the pool, exactly as dispatch does.
	m.curThread[0].pc = 4
	e.dispatch(0)
	<-e.state[0].done
	e.consume(0)
	var pe *PanicError
	if !errors.As(e.fail, &pe) {
		t.Fatalf("consume after worker panic: fail = %v, want *PanicError", e.fail)
	}
	if !strings.Contains(pe.Error(), "ALU") {
		t.Errorf("PanicError = %q, want the ALU panic", pe)
	}
	e.stopPool()
	if e.jobs != nil {
		t.Error("stopPool left the pool up")
	}
	waitGoroutines(t, base)
}
