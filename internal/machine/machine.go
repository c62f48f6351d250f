// Package machine is the simulated multicore that stands in for the
// paper's 4-core Haswell: an event-driven interpreter for the synthetic
// ISA with MESI coherence, a cycle cost model, per-core clocks, hardware
// transactions (for SSB flushes), the per-thread software store buffer
// runtime, and the Sheriff-style private-memory execution mode used by the
// baseline. A Probe hook receives HITM events — that is where the PEBS
// model attaches.
package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
)

// HITMEvent describes one HITM coherence event, as seen by the PMU.
type HITMEvent struct {
	Core       int
	Thread     int
	InstrIndex int
	PC         mem.Addr
	Addr       mem.Addr
	IsLoad     bool // load-triggered (Figure 1a) vs store-triggered (1c)
	Size       uint8
	Now        uint64 // the core's cycle clock at the event
}

// Probe observes PMU-visible events. Implementations return extra cycles
// charged to the core — how PEBS assists and driver interrupts perturb the
// application.
type Probe interface {
	OnHITM(ev HITMEvent) uint64
	OnContextSwitch(core, fromThread, toThread int, now uint64) uint64
}

// ThreadSpec describes one thread at startup.
type ThreadSpec struct {
	Entry int // instruction index of the first instruction
	Regs  map[isa.Reg]int64
}

// Config parameterizes a run.
type Config struct {
	Cores   int
	Quantum uint64 // scheduling quantum in cycles; 0 = DefaultQuantum
	Probe   Probe  // optional

	// ExtraInstrCycles and ExtraLoadCycles dilate every instruction or
	// load; the VTune baseline uses them to model always-on profiling.
	ExtraInstrCycles uint64
	ExtraLoadCycles  uint64

	// PrivateMemory selects the Sheriff execution model: plain accesses
	// go to a per-thread overlay; atomics and fences are commit points.
	PrivateMemory bool
	// OnCommit is called at each private-memory commit with the lines
	// (and byte masks) the thread wrote since its previous commit; it
	// returns extra cycles (Sheriff-Detect's sampling work).
	OnCommit func(tid int, writes []LineWrite, now uint64) uint64

	// OnAliasMiss is called when an inserted alias check detects that a
	// speculatively-SSB-exempt load aliases buffered stores (§5.3).
	OnAliasMiss func(tid int, pc mem.Addr)

	// MaxCycles aborts the run when any core clock exceeds it (0 = no
	// practical limit). Runs that hit the cap return ErrTimeout.
	MaxCycles uint64

	// Parallelism > 1 enables the intra-run parallel execution engine:
	// up to that many simulated cores execute their private instruction
	// stretches concurrently on host threads, while all globally-visible
	// events retire serially in the exact serial-scheduler order. The
	// results — statistics, HITM ground truth, probe callbacks — are
	// byte-identical to the serial engine at any worker count. 0 or 1
	// selects the serial scheduler. The engine requires at most one
	// thread per core; other configurations fall back to serial.
	Parallelism int
	// PrivateData lists, per thread id, heap ranges only that thread
	// ever touches (per-thread slices of shared allocations, private
	// arenas). The parallel engine treats these lines — plus the thread
	// stacks, when stack addresses provably do not escape — as
	// thread-private. Declaring a range another thread in fact touches
	// is a construction bug; enable ValidateSharing in tests to catch it.
	PrivateData [][]mem.Range
	// ValidateSharing makes the parallel engine panic when any thread
	// touches a line inside another thread's declared private ranges.
	ValidateSharing bool
}

// ErrTimeout reports that a run exceeded Config.MaxCycles.
var ErrTimeout = errors.New("machine: cycle limit exceeded")

// PanicError reports a panic raised while the machine was executing —
// a malformed program (unknown opcode, ret on an empty call stack), an
// interpreter bug, or an injected chaos fault. Run and RunFor convert
// such panics into a *PanicError return instead of unwinding into the
// caller, with every engine worker goroutine already joined; the
// machine itself is left in an undefined state and must be discarded.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("machine: panic during run: %v", e.Value)
}

// LineWrite describes one dirty cache line at a private-memory commit:
// which line and which bytes of it the thread wrote.
type LineWrite struct {
	Line mem.Line
	Mask uint64
}

// Stats aggregates one run.
type Stats struct {
	Cycles       uint64 // wall time: max core clock
	CoreCycles   []uint64
	Instructions uint64
	MemAccesses  uint64

	HITMLoads  uint64
	HITMStores uint64
	HITMByPC   map[mem.Addr]uint64 // ground truth, by true PC

	Flushes      uint64
	FlushAborts  uint64
	HTMFallbacks uint64
	SSBStores    uint64
	SSBLoads     uint64
	AliasMisses  uint64

	ContextSwitches uint64
	ProbeCycles     uint64 // cycles charged by the probe (PEBS/driver)
	Commits         uint64 // private-memory commit points
	CommitCycles    uint64
}

// HITMs returns the total HITM count.
func (s *Stats) HITMs() uint64 { return s.HITMLoads + s.HITMStores }

// Seconds converts the run's cycle count to simulated wall-clock seconds.
func (s *Stats) Seconds() float64 { return float64(s.Cycles) / ClockHz }

type txnState struct {
	lines    []mem.Line
	end      uint64
	aborted  bool
	attempts int
}

type thread struct {
	id int
	// regs is sized for the full uint8 register-number space rather than
	// isa.NumRegs so every regs[in.Rx] in the interpreter is provably in
	// bounds and the compiler elides the check; only the first NumRegs
	// entries are architecturally meaningful, and the builder never emits
	// higher numbers.
	regs      [256]int64
	pc        int
	callStack []int
	halted    bool

	ssb *SSB // LASERREPAIR store buffer (lazily created)
	txn *txnState

	overlay *SSB // Sheriff private-memory overlay
}

// Machine executes one program to completion.
type Machine struct {
	prog *isa.Program
	cfg  Config
	data *memory
	coh  *coherence.Model

	// ops is prog decoded (see decode.go), replaced together with prog
	// on every SetProgram; costs prices each op kind under cfg.
	ops   []op
	costs *opCosts

	threads []*thread
	// runq[c] lists thread ids assigned to core c; cur[c] indexes the
	// currently scheduled one.
	runq       [][]int
	cur        []int
	quantumEnd []uint64
	clock      []uint64

	// active lists the cores that still have runnable threads, in core
	// order. It is maintained incrementally (cores only ever leave it, as
	// their last thread halts) so the scheduler's min-clock scan touches
	// only live cores instead of all of them on every pick.
	active []int

	// curThread[c] caches threads[runq[c][cur[c]]] (nil when c has no
	// runnable thread) so the batch loop skips the triple indirection.
	curThread []*thread

	// activeTxns counts threads with a pending SSB-flush transaction, so
	// the per-access HTM conflict scan can be skipped entirely in the
	// common case of no transaction in flight.
	activeTxns int

	// progGen increments on every SetProgram, so the batch loop can tell
	// when a callback (repair fallback via OnAliasMiss) hot-swapped the
	// code out from under its hoisted decoded program.
	progGen uint64

	// hitmPCs accumulates per-PC HITM counts in a flat open-addressed
	// table on the hot path; finishStats materializes it into the public
	// Stats.HITMByPC map. A contended workload takes a HITM every few
	// instructions, and a Go map assign there is measurably expensive.
	hitmPCs pcCounts

	// eng is the intra-run parallel execution engine, nil under the
	// serial scheduler (see parallel.go).
	eng *engine

	stats Stats
}

// pcCounts is a small open-addressed PC→count table. Workloads have few
// distinct contended PCs, so it stays tiny and probe chains stay short.
// Address 0 is the empty-slot sentinel; no simulated PC is ever 0 (text
// regions start at mem.AppTextBase/mem.LibTextBase).
type pcCounts struct {
	keys   []mem.Addr
	counts []uint64
	used   int
}

func (p *pcCounts) bump(pc mem.Addr) {
	if p.keys == nil {
		p.keys = make([]mem.Addr, 64)
		p.counts = make([]uint64, 64)
	}
	mask := uint64(len(p.keys) - 1)
	i := (uint64(pc) * 0x9e3779b97f4a7c15 >> 32) & mask
	for {
		switch p.keys[i] {
		case pc:
			p.counts[i]++
			return
		case 0:
			if 4*(p.used+1) > 3*len(p.keys) {
				p.grow()
				p.bump(pc)
				return
			}
			p.keys[i] = pc
			p.counts[i] = 1
			p.used++
			return
		}
		i = (i + 1) & mask
	}
}

func (p *pcCounts) grow() {
	keys, counts := p.keys, p.counts
	p.keys = make([]mem.Addr, 2*len(keys))
	p.counts = make([]uint64, 2*len(counts))
	mask := uint64(len(p.keys) - 1)
	for j, k := range keys {
		if k == 0 {
			continue
		}
		i := (uint64(k) * 0x9e3779b97f4a7c15 >> 32) & mask
		for p.keys[i] != 0 {
			i = (i + 1) & mask
		}
		p.keys[i] = k
		p.counts[i] = counts[j]
	}
}

func (p *pcCounts) fill(dst map[mem.Addr]uint64) {
	clear(dst)
	for i, k := range p.keys {
		if k != 0 {
			dst[k] = p.counts[i]
		}
	}
}

// New creates a machine running prog with the given threads. Thread i is
// initially assigned to core i mod Cores; its stack pointer register is
// set from the standard stack layout.
func New(prog *isa.Program, cfg Config, specs []ThreadSpec) *Machine {
	if cfg.Cores <= 0 {
		panic("machine: Cores must be positive")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	m := &Machine{
		prog:       prog,
		ops:        decode(prog),
		costs:      newOpCosts(&cfg),
		cfg:        cfg,
		data:       newMemory(),
		coh:        coherence.NewModel(cfg.Cores),
		runq:       make([][]int, cfg.Cores),
		cur:        make([]int, cfg.Cores),
		quantumEnd: make([]uint64, cfg.Cores),
		clock:      make([]uint64, cfg.Cores),
	}
	m.stats.HITMByPC = make(map[mem.Addr]uint64)
	m.stats.CoreCycles = make([]uint64, cfg.Cores)
	for i, s := range specs {
		t := &thread{id: i, pc: s.Entry}
		_, _, sp := mem.StackFor(i)
		t.regs[isa.SP] = int64(sp)
		for r, v := range s.Regs {
			t.regs[r] = v
		}
		if cfg.PrivateMemory {
			t.overlay = NewSSB()
		}
		m.threads = append(m.threads, t)
		core := i % cfg.Cores
		m.runq[core] = append(m.runq[core], i)
	}
	for c := range m.quantumEnd {
		m.quantumEnd[c] = cfg.Quantum
	}
	m.curThread = make([]*thread, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		if len(m.runq[c]) > 0 {
			m.active = append(m.active, c)
			m.curThread[c] = m.threads[m.runq[c][m.cur[c]]]
		}
	}
	// The intra-run parallel engine: only worthwhile (and only
	// implemented) for the one-thread-per-core shape every evaluation
	// run uses — with several threads per core, quantum context switches
	// would interleave probe callbacks with segment consumption in an
	// order the serial scheduler cannot reproduce.
	if cfg.Parallelism > 1 && cfg.Cores > 1 && len(specs) > 1 && len(specs) <= cfg.Cores {
		m.eng = newEngine(m, specs)
	}
	return m
}

// WriteData initializes memory before the run without going through the
// coherence model (loader behaviour).
func (m *Machine) WriteData(a mem.Addr, size uint8, v uint64) { m.data.store(a, size, v) }

// ReadData reads memory directly, for result verification.
func (m *Machine) ReadData(a mem.Addr, size uint8) uint64 { return m.data.load(a, size) }

// Reg returns a register of a thread (for tests and baselines).
func (m *Machine) Reg(tid int, r isa.Reg) int64 { return m.threads[tid].regs[r] }

// Program returns the currently executing program.
func (m *Machine) Program() *isa.Program { return m.prog }

// SetProgram hot-swaps the executing code, as Pin does when LASERREPAIR
// attaches (§6). remap maps old instruction indices to new ones; it must
// be defined for every index a thread might be stopped at. Any active SSB
// is flushed through the fallback path first.
func (m *Machine) SetProgram(p *isa.Program, remap func(int) int) {
	// Any in-flight local segments retired instructions of the old
	// program; settle them before thread state is remapped underneath
	// them. (Mid-run swaps only happen via alias-miss callbacks, which
	// only exist in already-rewritten code — by then the engine has
	// stopped running memory instructions in segments, see parallel.go.)
	if m.eng != nil {
		m.eng.settleAll()
	}
	for _, t := range m.threads {
		if t.ssb != nil && t.ssb.Active() {
			m.applySSB(t, t.id%m.cfg.Cores)
			t.ssb.Clear()
		}
		if t.txn != nil {
			t.txn = nil
			m.activeTxns--
		}
		if !t.halted {
			t.pc = remap(t.pc)
		}
		for i := range t.callStack {
			t.callStack[i] = remap(t.callStack[i])
		}
	}
	m.prog = p
	m.ops = decode(p)
	m.progGen++
}

// Stats returns the statistics collected so far.
func (m *Machine) Stats() *Stats { return &m.stats }

// IntraRunParallel reports whether the intra-run parallel engine is
// driving this machine (Config.Parallelism > 1 on an eligible
// configuration). Tests assert it to make sure equivalence runs actually
// exercise the engine.
func (m *Machine) IntraRunParallel() bool { return m.eng != nil }

// CheckCoherence verifies the MESI invariants of the machine's coherence
// directory (see coherence.Model.CheckInvariants). Equivalence tests call
// it after a run.
func (m *Machine) CheckCoherence() error { return m.coh.CheckInvariants() }

// CoherenceCounts returns a copy of the MESI model's per-result access
// counters (hits, misses, HITMs, flushes — coherence.Result order).
// Equivalence tests compare them across execution engines: two runs that
// agree on Stats but disagree here took different coherence paths.
func (m *Machine) CoherenceCounts() []uint64 { return append([]uint64(nil), m.coh.Counts[:]...) }

// Run executes until every thread halts, or the cycle cap is hit.
func (m *Machine) Run() (*Stats, error) {
	_, err := m.RunFor(^uint64(0))
	return &m.stats, err
}

// RunFor advances the machine until the earliest core clock reaches
// target or all threads halt; it returns done=true in the latter case.
// The LASER harness interleaves RunFor slices with detector polling and
// online repair (§6). Stats are refreshed on every return.
//
// Scheduling is exact lowest-clock-first (ties to the lowest core id), but
// the cost of deciding who runs is amortized: once a core is picked it
// retires a batch of instructions for as long as it provably remains the
// pick — bounded by the next core's clock, its quantum end, the cycle cap
// and target — instead of re-running the scan per instruction. The
// resulting execution order, and therefore every statistic, is identical
// to the one-instruction-at-a-time schedule.
//
// A panic raised while executing — malformed program, interpreter bug,
// injected chaos fault — is contained: RunFor recovers it and returns a
// *PanicError with all engine worker goroutines joined, so a panicking
// workload cannot tear down the evaluation process or leak goroutines.
func (m *Machine) RunFor(target uint64) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
			} else {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
			done = false
		}
	}()
	if m.eng != nil {
		return m.eng.runFor(target)
	}
	live := 0
	for _, t := range m.threads {
		if !t.halted {
			live++
		}
	}
	for live > 0 {
		c, limit := m.pickCoreAndLimit(target)
		if c < 0 {
			break
		}
		if m.clock[c] >= target {
			m.finishStats()
			return false, nil
		}
		if m.clock[c] > m.cfg.MaxCycles {
			m.finishStats()
			return false, ErrTimeout
		}
		t := m.curThread[c]
		// Resolve a pending SSB-flush transaction whose window elapsed.
		if t.txn != nil && m.clock[c] >= t.txn.end {
			m.resolveTxn(t, c)
			continue
		}
		if t.txn != nil {
			// Busy inside the transaction window.
			m.clock[c] = t.txn.end
			continue
		}
		// Batch: core c stays the pick while its clock is under limit, so
		// it can retire instructions back to back. Beyond the limit it may
		// still run ahead through purely thread-local instructions (ALU,
		// branches, ...): those commute with everything other cores do, so
		// executing them early cannot change any observable — the core
		// yields before its next shared-memory operation, which therefore
		// still happens at exactly the serial schedule's clock and order.
		// The hard bounds (target, cycle cap, quantum end) always stop the
		// batch: crossing them has side effects (detector polls, repair
		// hot-swaps, context switches) that must not be reordered.
		// Starting a transaction or halting hands control back too.
		hard := target
		if m.cfg.MaxCycles+1 < hard {
			hard = m.cfg.MaxCycles + 1
		}
		if len(m.runq[c]) > 1 && m.quantumEnd[c] < hard {
			hard = m.quantumEnd[c]
		}
		if m.runBatch(t, c, limit, hard, false) {
			live--
			continue
		}
		// Quantum-based round-robin when a core hosts several threads.
		if len(m.runq[c]) > 1 && m.clock[c] >= m.quantumEnd[c] {
			m.switchThread(c)
		}
	}
	m.finishStats()
	return true, nil
}

// pickCoreAndLimit scans the active cores once and returns both the
// scheduler's pick — the core with the lowest clock, ties to the lowest
// id — and the clock bound under which that core is guaranteed to remain
// the pick: the strictest of the other live cores' clocks (respecting the
// tie-break), the pick's quantum end when it hosts several threads, the
// run target and the cycle cap. The batch loop re-enters the scheduler
// once the pick's clock reaches the bound.
func (m *Machine) pickCoreAndLimit(target uint64) (int, uint64) {
	best, bestClock, bound := -1, ^uint64(0), ^uint64(0)
	for _, c := range m.active {
		ck := m.clock[c]
		if ck < bestClock {
			if best >= 0 && bestClock < bound {
				// The dethroned best has a lower id than c, so it takes
				// the core back as soon as c's clock reaches its own.
				bound = bestClock
			}
			best, bestClock = c, ck
		} else if ck+1 < bound {
			// c has a higher id than the current best (active is in core
			// order), so the best keeps winning ties against it.
			bound = ck + 1
		}
	}
	if best < 0 {
		return -1, 0
	}
	if target < bound {
		bound = target
	}
	if m.cfg.MaxCycles+1 < bound {
		bound = m.cfg.MaxCycles + 1
	}
	if len(m.runq[best]) > 1 && m.quantumEnd[best] < bound {
		bound = m.quantumEnd[best]
	}
	return best, bound
}

func (m *Machine) finishStats() {
	m.hitmPCs.fill(m.stats.HITMByPC)
	copy(m.stats.CoreCycles, m.clock)
	m.stats.Cycles = 0
	for _, c := range m.clock {
		if c > m.stats.Cycles {
			m.stats.Cycles = c
		}
	}
	m.stats.HITMLoads = m.coh.Counts[coherence.HITMLoad]
	m.stats.HITMStores = m.coh.Counts[coherence.HITMStore]
}

func (m *Machine) removeThread(c, tid int) {
	q := m.runq[c]
	for i, id := range q {
		if id != tid {
			continue
		}
		m.runq[c] = append(q[:i], q[i+1:]...)
		// Keep cur pointing at the same logical position: a removal
		// before it shifts the remaining threads down one slot; without
		// the decrement the next scheduled thread's turn is skipped.
		if i < m.cur[c] {
			m.cur[c]--
		}
		if m.cur[c] >= len(m.runq[c]) {
			m.cur[c] = 0
		}
		if len(m.runq[c]) == 0 {
			m.curThread[c] = nil
			for j, a := range m.active {
				if a == c {
					m.active = append(m.active[:j], m.active[j+1:]...)
					break
				}
			}
		} else {
			m.curThread[c] = m.threads[m.runq[c][m.cur[c]]]
		}
		return
	}
}

func (m *Machine) switchThread(c int) {
	from := m.runq[c][m.cur[c]]
	m.cur[c] = (m.cur[c] + 1) % len(m.runq[c])
	to := m.runq[c][m.cur[c]]
	m.curThread[c] = m.threads[to]
	m.clock[c] += CostContextSwitch
	m.stats.ContextSwitches++
	if m.cfg.Probe != nil {
		extra := m.cfg.Probe.OnContextSwitch(c, from, to, m.clock[c])
		m.clock[c] += extra
		m.stats.ProbeCycles += extra
	}
	m.quantumEnd[c] = m.clock[c] + m.cfg.Quantum
}

// runBatch retires instructions of t on core c until the batch expires:
// the thread halts (returns true, with the thread removed from its queue),
// it starts an SSB-flush transaction, its clock reaches hard, or its clock
// reaches limit with a non-local instruction up next (see RunFor). The
// executor dispatch lives directly in this loop — one call per batch,
// not per instruction — over the decoded program; the globally-visible
// ops retire out of line (execGlobal).
//
// routed forces loads and stores through the memLoad/memStore wrappers so
// the intra-run parallel engine's private-line routing applies; the
// serial scheduler passes false and keeps the inlined fast path. The
// retirement semantics are identical either way.
func (m *Machine) runBatch(t *thread, c int, limit, hard uint64, routed bool) bool {
	ops, costs := m.ops, m.costs
	gen := m.progGen
	clk := &m.clock[c]
	priv := m.cfg.PrivateMemory
	var eng *engine
	if routed {
		eng = m.eng
	}
	steps := uint64(0)
	for {
		o := &ops[t.pc]
		steps++
		cost := costs[o.kind]
		next := t.pc + 1

		switch o.kind {
		case opNop, opPause:
		case opIO:
			cost += uint64(o.imm)
		case opMovImm:
			t.regs[o.d] = o.imm
		case opMov:
			t.regs[o.d] = t.regs[o.a]
		case opAdd:
			t.regs[o.d] = t.regs[o.a] + t.regs[o.b]
		case opSub:
			t.regs[o.d] = t.regs[o.a] - t.regs[o.b]
		case opMul:
			t.regs[o.d] = t.regs[o.a] * t.regs[o.b]
		case opDiv:
			t.regs[o.d] = div(t.regs[o.a], t.regs[o.b])
		case opAnd:
			t.regs[o.d] = t.regs[o.a] & t.regs[o.b]
		case opOr:
			t.regs[o.d] = t.regs[o.a] | t.regs[o.b]
		case opXor:
			t.regs[o.d] = t.regs[o.a] ^ t.regs[o.b]
		case opShl:
			t.regs[o.d] = t.regs[o.a] << (uint64(t.regs[o.b]) & 63)
		case opShr:
			t.regs[o.d] = int64(uint64(t.regs[o.a]) >> (uint64(t.regs[o.b]) & 63))
		case opAddI:
			t.regs[o.d] = t.regs[o.a] + o.imm
		case opSubI:
			t.regs[o.d] = t.regs[o.a] - o.imm
		case opMulI:
			t.regs[o.d] = t.regs[o.a] * o.imm
		case opDivI:
			t.regs[o.d] = div(t.regs[o.a], o.imm)
		case opAndI:
			t.regs[o.d] = t.regs[o.a] & o.imm
		case opOrI:
			t.regs[o.d] = t.regs[o.a] | o.imm
		case opXorI:
			t.regs[o.d] = t.regs[o.a] ^ o.imm
		case opShlI:
			t.regs[o.d] = t.regs[o.a] << (uint64(o.imm) & 63)
		case opShrI:
			t.regs[o.d] = int64(uint64(t.regs[o.a]) >> (uint64(o.imm) & 63))
		case opLoad:
			addr := mem.Addr(t.regs[o.a] + o.imm)
			if !priv {
				// Common path: the access() body inline, without the
				// memLoad and access wrapper frames. In the engine's
				// routed mode, thread-private lines charge from the
				// thread-local first-touch table instead of the
				// directory.
				cc := uint64(0)
				private := false
				if eng != nil {
					cc, private = eng.privAccess(t, addr)
				}
				if private {
					cost += cc
				} else {
					m.stats.MemAccesses++
					res := m.coh.Access(c, addr, false)
					if m.activeTxns > 0 {
						m.abortConflictingTxns(t, addr)
					}
					if res.Result.IsHITM() {
						m.noteHITM(t, c, &m.prog.Instrs[t.pc], addr, false, res)
					}
					cost += costTable[res.Result&7]
				}
				// Aligned 8-byte read on the cached page, inline; every
				// other shape takes the general loader.
				if off := uint64(addr) & (pageSize - 1); uint8(o.arg) == 8 &&
					off <= pageSize-8 && uint64(addr)>>pageShift == m.data.lastPageNo {
					t.regs[o.d] = int64(binary.LittleEndian.Uint64(m.data.lastPage[off:]))
				} else {
					t.regs[o.d] = int64(m.data.load(addr, uint8(o.arg)))
				}
			} else {
				v, cc := m.memLoad(t, c, &m.prog.Instrs[t.pc], addr)
				t.regs[o.d] = int64(v)
				cost += cc
			}
		case opStore, opStoreImm:
			addr := mem.Addr(t.regs[o.a] + o.imm)
			v := uint64(t.regs[o.b])
			if o.kind == opStoreImm {
				addr, v = mem.Addr(t.regs[o.a]), uint64(o.imm)
			}
			if !priv {
				cc := uint64(0)
				private := false
				if eng != nil {
					cc, private = eng.privAccess(t, addr)
				}
				if private {
					cost += cc
				} else {
					m.stats.MemAccesses++
					res := m.coh.Access(c, addr, true)
					if m.activeTxns > 0 {
						m.abortConflictingTxns(t, addr)
					}
					if res.Result.IsHITM() {
						m.noteHITM(t, c, &m.prog.Instrs[t.pc], addr, true, res)
					}
					cost += costTable[res.Result&7]
				}
				if off := uint64(addr) & (pageSize - 1); uint8(o.arg) == 8 &&
					off <= pageSize-8 && uint64(addr)>>pageShift == m.data.lastPageNo {
					binary.LittleEndian.PutUint64(m.data.lastPage[off:], v)
				} else {
					m.data.store(addr, uint8(o.arg), v)
				}
			} else {
				cost += m.memStore(t, c, &m.prog.Instrs[t.pc], addr, v)
			}
		case opBranch:
			if condHolds(isa.Cond(o.d), t.regs[o.a], t.regs[o.b]) {
				next = int(o.arg)
			}
		case opBranchI:
			if condHolds(isa.Cond(o.d), t.regs[o.a], o.imm) {
				next = int(o.arg)
			}
		case opJump:
			next = int(o.arg)
		case opCall:
			t.callStack = append(t.callStack, t.pc+1)
			next = int(o.arg)
		case opRet:
			if len(t.callStack) == 0 {
				panic(fmt.Sprintf("machine: ret with empty call stack at %d", t.pc))
			}
			next = t.callStack[len(t.callStack)-1]
			t.callStack = t.callStack[:len(t.callStack)-1]
		default:
			cost += m.execGlobal(t, c, &m.prog.Instrs[t.pc])
		}

		*clk += cost
		if t.halted {
			m.stats.Instructions += steps
			m.removeThread(c, t.id)
			return true
		}
		t.pc = next
		if t.txn != nil {
			break
		}
		if m.progGen != gen {
			// A callback hot-swapped the program (and remapped pcs).
			ops = m.ops
			gen = m.progGen
		}
		if ck := *clk; ck >= limit {
			if ck >= hard || !ops[t.pc].kind.local() {
				break
			}
		}
	}
	m.stats.Instructions += steps
	return false
}

// div is the ISA's signed division: division by zero yields zero.
func div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func condHolds(c isa.Cond, a, b int64) bool {
	switch c {
	case isa.Eq:
		return a == b
	case isa.Ne:
		return a != b
	case isa.Lt:
		return a < b
	case isa.Le:
		return a <= b
	case isa.Gt:
		return a > b
	case isa.Ge:
		return a >= b
	}
	panic("machine: unknown condition")
}
