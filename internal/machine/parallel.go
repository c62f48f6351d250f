package machine

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the intra-run parallel execution engine: a second
// scheduler that runs the simulated cores on real host threads while
// producing byte-identical results to the serial scheduler.
//
// The paper's own premise (§3) makes this possible: the overwhelming
// majority of instructions touch only thread-private state. The engine
// splits execution into *local segments* — maximal runs of provably- or
// checked-private instructions — and *global events* — shared-memory
// accesses, atomics, fences, SSB operations, halts. Local segments
// commute with everything other cores do: they touch only the thread's
// registers, control flow, and cache lines no other thread ever names, so
// their costs and side effects are independent of interleaving. The
// engine therefore executes segments concurrently on a worker pool and
// retires the global events serially, in exactly the serial scheduler's
// lowest-clock-first order (ties to the lowest core id). Every
// globally-visible transition — coherence traffic, HITMs, probe
// callbacks, SSB flush transactions — happens on the scheduler goroutine
// in that total order, which is why statistics, reports and event streams
// come out bit-identical at any worker count.
//
// Private lines never enter the shared coherence directory. A line that
// only one thread ever touches has a trivial MESI life: MissMemory on
// first access, HitLocal forever after. Each thread tracks its private
// lines in a local first-touch bitmap (privSet) and charges exactly those
// outcomes; the directory's HITM/Upgrade machinery is provably
// unreachable for such lines. Both the worker path and the serial
// retirement path route accesses through the same line-ownership test
// (Machine.access), so a line is accounted in exactly one place for the
// whole run.
//
// Program hot-swaps (LASERREPAIR) are the one global event that does not
// commute with private *memory* instructions: the rewriter turns stores
// into SSB stores and prefixes loads with alias checks, so a private
// access run ahead of a swap could miss its post-swap instrumentation.
// Swaps can only occur mid-run once a rewrite is already installed
// (alias checks exist only in rewritten code), so the engine runs
// memory-carrying segments only while the original program is installed
// (progGen == 0) and degrades to register-only segments afterwards —
// exactly the serial scheduler's original run-ahead rule.
type engine struct {
	m        *Machine
	priv     []*privSet // per thread; nil for threads with no private ranges
	views    []*memView // per core
	state    []coreState
	workers  int
	validate bool
	// threshold is the predicted segment length (instructions) above
	// which a segment is worth shipping to the worker pool instead of
	// running inline on the scheduler goroutine: dispatchThreshold, which
	// tests lower to push tiny programs through the pool.
	threshold float64

	// mu guards the shared page table while segments execute: page
	// creation is the only structural mutation workers and the scheduler
	// can race on (data bytes of distinct lines never overlap).
	mu sync.Mutex

	target uint64
	jobs   chan int
	wg     sync.WaitGroup

	// fail is the first segment panic recovered on a worker, recorded by
	// consume and returned from runFor. Only the scheduler goroutine
	// touches it (consume runs after the worker's done send), so no lock.
	fail error
}

// dispatchThreshold is the predicted segment length, in instructions, at
// which handing the segment to a worker beats running it inline: a
// dispatch costs on the order of a microsecond of channel traffic and
// wakeups, which ~500 simulated instructions amortize.
const dispatchThreshold = 512

// serialStepThreshold is the predicted private-run length below which a
// core is cheaper to drive with plain serial stepping (to the exact
// serial-scheduler batch limit) than with segment bookkeeping: shared-
// heavy workloads degrade to the serial scheduler's behaviour instead of
// paying engine overhead per event.
const serialStepThreshold = 24

// probeInterval is how often (in scheduler turns) a serial-stepped core
// re-measures its private-run length with a real segment, so a phase
// change back to private-heavy execution is noticed.
const probeInterval = 64

type segStatus uint8

const (
	// segIdle: the core needs its next local segment computed.
	segIdle segStatus = iota
	// segInFlight: a worker is executing the core's segment.
	segInFlight
	// segStopped: the segment is consumed; the core's next instruction
	// (a global event, or anything after a target boundary) has not
	// executed yet.
	segStopped
)

type coreState struct {
	status segStatus
	// fault is a panic recovered while a worker ran this core's segment;
	// consume surfaces it as the run's failure instead of folding the
	// (unwritten) result in.
	fault error
	// ema predicts the next segment's instruction count from recent
	// history; it decides inline vs dispatched execution and adapts
	// per-core, so a contended core degrades to serial stepping while a
	// compute-bound sibling keeps its worker.
	ema   float64
	probe int
	job   segJob
	res   segResult
	done  chan struct{}
}

type segJob struct {
	t     *thread
	clock uint64
	hard  uint64
	// allowMem permits private memory instructions in the segment; false
	// once a program rewrite is installed (see the package comment).
	allowMem bool
}

// segResult carries a segment's effects back to the scheduler. Everything
// here is a pure sum (or the final clock), so consumption order across
// cores cannot influence any observable.
type segResult struct {
	clock uint64
	steps uint64
	mem   uint64
	miss  uint64 // first-touch private lines (MissMemory outcomes)
	hit   uint64 // re-touched private lines (HitLocal outcomes)
}

// privRange is one line-aligned thread-private range plus the first-touch
// bitmap that stands in for the coherence directory: a single-owner MESI
// line is MissMemory on first access and HitLocal on every later one,
// regardless of the read/write mix.
type privRange struct {
	start, end mem.Addr
	bits       []uint64
}

// touch marks the line as cached by its owner and reports whether this
// was the first access.
func (r *privRange) touch(line mem.Line) bool {
	idx := uint64(mem.Addr(line)-r.start) >> mem.LineShift
	w, b := idx>>6, uint64(1)<<(idx&63)
	if r.bits[w]&b != 0 {
		return false
	}
	r.bits[w] |= b
	return true
}

// privSet is one thread's private ranges with a one-entry MRU cache; hot
// loops hammer a single range, so the common lookup is two compares.
type privSet struct {
	ranges []privRange
	last   int
}

func newPrivSet(rs []mem.Range) *privSet {
	if len(rs) == 0 {
		return nil
	}
	ps := &privSet{ranges: make([]privRange, len(rs))}
	for i, r := range rs {
		lines := uint64(r.End-r.Start) >> mem.LineShift
		ps.ranges[i] = privRange{start: r.Start, end: r.End, bits: make([]uint64, (lines+63)/64)}
	}
	return ps
}

// find returns the range containing a, or nil. Only the owning thread's
// current executor (worker or scheduler, never both) may call it — the
// MRU index is unsynchronized by design.
func (ps *privSet) find(a mem.Addr) *privRange {
	if ps == nil {
		return nil
	}
	if r := &ps.ranges[ps.last]; a >= r.start && a < r.end {
		return r
	}
	for i := range ps.ranges {
		if r := &ps.ranges[i]; a >= r.start && a < r.end {
			ps.last = i
			return r
		}
	}
	return nil
}

// contains is the read-only variant safe for cross-thread validation.
func (ps *privSet) contains(a mem.Addr) bool {
	if ps == nil {
		return false
	}
	for i := range ps.ranges {
		if a >= ps.ranges[i].start && a < ps.ranges[i].end {
			return true
		}
	}
	return false
}

// memView is a worker's window onto the shared sparse memory. Workers
// must not touch the shared memory's lookup caches (they are
// scheduler-owned), so each view keeps its own page cache and resolves
// misses through the engine mutex. Page pointers are stable once created,
// which makes the local cache safe forever.
type memView struct {
	m      *memory
	mu     *sync.Mutex
	pages  map[uint64]*[pageSize]byte
	lastNo uint64
	last   *[pageSize]byte
}

func newMemView(m *memory, mu *sync.Mutex) *memView {
	return &memView{m: m, mu: mu, pages: make(map[uint64]*[pageSize]byte), lastNo: ^uint64(0)}
}

func (v *memView) page(a mem.Addr) *[pageSize]byte {
	pn := uint64(a) >> pageShift
	if pn == v.lastNo {
		return v.last
	}
	p := v.pages[pn]
	if p == nil {
		v.mu.Lock()
		p = v.m.slowPage(a)
		v.mu.Unlock()
		v.pages[pn] = p
	}
	v.lastNo, v.last = pn, p
	return p
}

func (v *memView) load(a mem.Addr, size uint8) uint64 {
	off := uint64(a) & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := v.page(a)
		switch size {
		case 8:
			return uint64(p[off]) | uint64(p[off+1])<<8 | uint64(p[off+2])<<16 | uint64(p[off+3])<<24 |
				uint64(p[off+4])<<32 | uint64(p[off+5])<<40 | uint64(p[off+6])<<48 | uint64(p[off+7])<<56
		case 4:
			return uint64(p[off]) | uint64(p[off+1])<<8 | uint64(p[off+2])<<16 | uint64(p[off+3])<<24
		case 2:
			return uint64(p[off]) | uint64(p[off+1])<<8
		case 1:
			return uint64(p[off])
		}
	}
	var val uint64
	for i := uint8(0); i < size; i++ {
		val |= uint64(v.loadByte(a+mem.Addr(i))) << (8 * i)
	}
	return val
}

func (v *memView) store(a mem.Addr, size uint8, val uint64) {
	off := uint64(a) & (pageSize - 1)
	if off+uint64(size) <= pageSize {
		p := v.page(a)
		for i := uint8(0); i < size; i++ {
			p[off+uint64(i)] = byte(val >> (8 * i))
		}
		return
	}
	for i := uint8(0); i < size; i++ {
		v.page(a + mem.Addr(i))[uint64(a+mem.Addr(i))&(pageSize-1)] = byte(val >> (8 * i))
	}
}

func (v *memView) loadByte(a mem.Addr) byte {
	return v.page(a)[uint64(a)&(pageSize-1)]
}

// newEngine wires the intra-run engine into a freshly built machine. The
// caller has already decided the configuration is eligible (workers > 1,
// multiple threads, at most one thread per core).
func newEngine(m *Machine, specs []ThreadSpec) *engine {
	threads := len(specs)
	ranges := canonicalRanges(m.cfg.PrivateData, threads)

	// Thread stacks are private only if no stack address can reach
	// another thread: no tainted value is ever stored, no stack-range
	// literal appears in the text, and no thread starts with a register
	// into a foreign stack.
	stacks := make([]mem.Range, threads)
	for t := range stacks {
		base, top, _ := mem.StackFor(t)
		stacks[t] = mem.Range{Start: base, End: top}
	}
	seeds := make([]isa.ThreadSeed, threads)
	for t, s := range specs {
		regs := make(map[isa.Reg]int64, len(s.Regs)+1)
		_, _, sp := mem.StackFor(t)
		regs[isa.SP] = int64(sp)
		for r, v := range s.Regs {
			regs[r] = v
		}
		seeds[t] = isa.ThreadSeed{Regs: regs}
	}
	stackSafe := !isa.StackAddrEscapes(m.prog, seeds, stacks)
	if stackSafe {
	check:
		for t := range seeds {
			for _, v := range seeds[t].Regs {
				for u, sr := range stacks {
					if u != t && sr.Contains(mem.Addr(v)) {
						stackSafe = false
						break check
					}
				}
			}
		}
	}

	e := &engine{
		m:         m,
		priv:      make([]*privSet, threads),
		views:     make([]*memView, m.cfg.Cores),
		state:     make([]coreState, m.cfg.Cores),
		workers:   min(m.cfg.Parallelism, threads),
		validate:  m.cfg.ValidateSharing,
		threshold: dispatchThreshold,
	}
	for t := range e.priv {
		rs := ranges[t]
		if stackSafe {
			rs = append(rs, stacks[t])
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		e.priv[t] = newPrivSet(rs)
	}
	for c := range e.views {
		e.views[c] = newMemView(m.data, &e.mu)
		e.state[c].done = make(chan struct{}, 1)
		e.state[c].ema = e.threshold // optimistic: first segments dispatch
	}
	m.data.mu = &e.mu
	return e
}

// canonicalRanges line-aligns and sorts the declared per-thread private
// ranges and panics if any two threads' ranges share a cache line — an
// overlapping declaration is a workload construction bug that would
// silently corrupt the simulation, exactly like an overlapping memory
// map.
func canonicalRanges(decl [][]mem.Range, threads int) [][]mem.Range {
	out := make([][]mem.Range, threads)
	type owned struct {
		r mem.Range
		t int
	}
	var all []owned
	for t := 0; t < threads && t < len(decl); t++ {
		for _, r := range decl[t] {
			r = r.LineAligned()
			if r.Empty() {
				continue
			}
			out[t] = append(out[t], r)
			all = append(all, owned{r, t})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r.Start < all[j].r.Start })
	for i := 1; i < len(all); i++ {
		if all[i-1].r.End > all[i].r.Start {
			panic(fmt.Sprintf("machine: private ranges overlap: thread %d [%#x,%#x) vs thread %d [%#x,%#x)",
				all[i-1].t, all[i-1].r.Start, all[i-1].r.End, all[i].t, all[i].r.Start, all[i].r.End))
		}
	}
	return out
}

// privAccess charges a thread-private access without touching the shared
// coherence directory. ok is false when the line is not private to t, in
// which case the caller proceeds through the directory. Both engines'
// outcome sequences for a single-owner line are identical (MissMemory
// then HitLocal), so statistics match the serial scheduler exactly.
func (e *engine) privAccess(t *thread, addr mem.Addr) (uint64, bool) {
	line := mem.LineOf(addr)
	r := e.priv[t.id].find(mem.Addr(line))
	if r == nil {
		if e.validate {
			e.checkForeign(t.id, line)
		}
		return 0, false
	}
	m := e.m
	m.stats.MemAccesses++
	if r.touch(line) {
		m.coh.Counts[coherence.MissMemory]++
		return CostMissMemory, true
	}
	m.coh.Counts[coherence.HitLocal]++
	return CostMemHitLocal, true
}

// checkForeign panics when a thread touches a line declared private to a
// different thread — the declaration soundness check behind
// Config.ValidateSharing. Tests run the stock workloads with it enabled.
func (e *engine) checkForeign(tid int, line mem.Line) {
	for id, ps := range e.priv {
		if id != tid && ps.contains(mem.Addr(line)) {
			panic(fmt.Sprintf("machine: thread %d accessed line %#x declared private to thread %d",
				tid, uint64(line), id))
		}
	}
}

// runFor is the engine's replacement for the serial scheduler loop. The
// flow per picked core: settle an in-flight segment, honor the target and
// cycle cap, resolve SSB-flush transaction windows, retire one global
// event (stepOne), or compute the next local segment — dispatched to the
// pool when the core's recent segments have been long enough to amortize
// a dispatch, inline otherwise.
func (e *engine) runFor(target uint64) (bool, error) {
	m := e.m
	e.target = target
	e.fail = nil
	defer e.stopPool()
	live := 0
	for _, t := range m.threads {
		if !t.halted {
			live++
		}
	}
	for live > 0 && e.fail == nil {
		// pickCoreAndLimit applies the serial scheduler's exact pick rule
		// (lowest clock, ties to the lowest core id). In-flight cores
		// participate with their dispatch-time clocks — lower bounds of
		// their true clocks — which can only make the pick and the batch
		// limit more conservative, never reorder an event.
		c, limit := m.pickCoreAndLimit(target)
		if c < 0 {
			break
		}
		st := &e.state[c]
		if st.status == segInFlight {
			<-st.done
			e.consume(c)
			continue
		}
		if m.clock[c] >= target {
			e.settleAll()
			m.finishStats()
			return false, e.fail
		}
		if m.clock[c] > m.cfg.MaxCycles {
			e.settleAll()
			m.finishStats()
			if e.fail != nil {
				return false, e.fail
			}
			return false, ErrTimeout
		}
		t := m.curThread[c]
		// Resolve or wait out a pending SSB-flush transaction, exactly
		// as the serial loop does.
		if t.txn != nil {
			if m.clock[c] >= t.txn.end {
				m.resolveTxn(t, c)
			} else {
				m.clock[c] = t.txn.end
			}
			continue
		}
		// Event-dense core: private runs too short for segment
		// bookkeeping to pay off. Drive it with the serial batch
		// interpreter itself — same pick rule, same batch bounds — with
		// loads and stores routed through the private-line tables. The
		// probe countdown periodically lets the segment machinery run
		// one round anyway, so a workload entering a private-heavy phase
		// re-measures its run length and promotes itself back.
		if st.ema < serialStepThreshold && st.probe > 0 {
			st.probe--
			hard := e.target
			if m.cfg.MaxCycles+1 < hard {
				hard = m.cfg.MaxCycles + 1
			}
			if m.runBatch(t, c, limit, hard, true) {
				live--
			}
			st.status = segIdle // the batch retired any pending event
			continue
		}
		if st.status == segStopped {
			// The next instruction is a global event (or the first
			// instruction after a target boundary): retire exactly one
			// instruction through the routed access path, then go back
			// to segment mode.
			st.status = segIdle
			if m.stepOne(t, c) {
				live--
			}
			continue
		}
		// segIdle: compute the next local segment. First overlap: ship
		// any other idle core whose predicted segment is long enough.
		if e.workers > 1 {
			for _, c2 := range m.active {
				st2 := &e.state[c2]
				if c2 == c || st2.status != segIdle || st2.ema < e.threshold {
					continue
				}
				t2 := m.curThread[c2]
				if t2 == nil || t2.txn != nil || m.clock[c2] >= target || m.clock[c2] > m.cfg.MaxCycles {
					continue
				}
				e.dispatch(c2)
			}
			if st.ema >= e.threshold {
				e.dispatch(c)
				continue
			}
		}
		e.prepJob(c)
		e.runSegment(c)
		e.consume(c)
	}
	e.settleAll()
	m.finishStats()
	if e.fail != nil {
		return false, e.fail
	}
	return true, nil
}

func (e *engine) prepJob(c int) {
	m := e.m
	hard := e.target
	if m.cfg.MaxCycles+1 < hard {
		hard = m.cfg.MaxCycles + 1
	}
	e.state[c].job = segJob{
		t:        m.curThread[c],
		clock:    m.clock[c],
		hard:     hard,
		allowMem: m.progGen == 0,
	}
}

func (e *engine) dispatch(c int) {
	e.ensurePool()
	e.prepJob(c)
	e.state[c].status = segInFlight
	e.jobs <- c
}

// consume folds a finished segment into the machine. Everything merged is
// a pure sum (plus the core's clock), so the order cores are consumed in
// is unobservable — the property settleAll relies on.
func (e *engine) consume(c int) {
	st := &e.state[c]
	if st.fault != nil {
		// The worker panicked mid-segment: the result was never written,
		// so there is nothing to fold. Record the first failure; runFor
		// settles the rest and surfaces it.
		if e.fail == nil {
			e.fail = st.fault
		}
		st.fault = nil
		st.status = segStopped
		return
	}
	m := e.m
	m.clock[c] = st.res.clock
	m.stats.Instructions += st.res.steps
	m.stats.MemAccesses += st.res.mem
	m.coh.Counts[coherence.MissMemory] += st.res.miss
	m.coh.Counts[coherence.HitLocal] += st.res.hit
	st.ema = (3*st.ema + float64(st.res.steps)) / 4
	st.probe = probeInterval
	st.status = segStopped
}

// settleAll drains every in-flight segment. Called before any state the
// workers share with the scheduler may change underneath them: RunFor
// exits and program hot-swaps.
func (e *engine) settleAll() {
	for c := range e.state {
		if e.state[c].status == segInFlight {
			<-e.state[c].done
			e.consume(c)
		}
	}
}

func (e *engine) ensurePool() {
	if e.jobs != nil {
		return
	}
	e.jobs = make(chan int, len(e.state))
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go func() {
			defer e.wg.Done()
			for c := range e.jobs {
				e.runSegmentGuarded(c)
				e.state[c].done <- struct{}{}
			}
		}()
	}
}

// stopPool tears the worker pool down at the end of each RunFor slice, so
// an abandoned machine never leaks goroutines. The pool is rebuilt lazily
// on the next dispatch; short or contended slices never pay for it.
func (e *engine) stopPool() {
	if e.jobs == nil {
		return
	}
	e.settleAll() // defensive: no exit path leaves segments in flight
	close(e.jobs)
	e.wg.Wait()
	e.jobs = nil
}

// runSegmentGuarded is the worker-side wrapper around runSegment: a
// panic inside the segment (malformed program, injected chaos fault) is
// recovered into the core's fault slot so the worker survives to send
// its done signal — settleAll never deadlocks, the pool always joins,
// and the scheduler surfaces the failure as runFor's error. Inline
// (scheduler-goroutine) segments need no guard: their panics unwind
// through runFor's deferred stopPool into Machine.RunFor's recover.
func (e *engine) runSegmentGuarded(c int) {
	defer func() {
		if r := recover(); r != nil {
			e.state[c].fault = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	e.runSegment(c)
}

// runSegment executes one core's local segment: private (or
// runtime-checked private) instructions back to back until the next
// global event or the hard clock bound. It runs on a worker goroutine or
// inline on the scheduler; either way it touches only the thread's own
// state, the thread's private lines, and worker-local counters, so it
// commutes with everything else in flight.
func (e *engine) runSegment(c int) {
	st := &e.state[c]
	j := &st.job
	t := j.t
	m := e.m
	ops, costs := m.ops, m.costs
	ps := e.priv[t.id]
	view := e.views[c]
	clk, hard := j.clock, j.hard
	priv := m.cfg.PrivateMemory
	allowMem := j.allowMem
	var steps, memAcc, miss, hit uint64
loop:
	for clk < hard {
		o := &ops[t.pc]
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
			if !allowMem {
				break loop
			}
			addr := mem.Addr(t.regs[o.a] + o.imm)
			if priv {
				// Sheriff mode: a load is thread-local only when every
				// byte hits this thread's own overlay. A missing byte
				// would fall back to shared memory, whose contents
				// depend on the global order of other threads' commits
				// — such loads (including every spin-wait on a flag
				// another thread publishes) retire serially.
				v, ok := t.overlay.GetLocal(addr, uint8(o.arg))
				if !ok {
					break loop
				}
				t.regs[o.d] = int64(v)
				cost += CostMemHitLocal
				break
			}
			r := ps.find(addr)
			if r == nil || addr+mem.Addr(o.arg) > r.end {
				break loop
			}
			if r.touch(mem.LineOf(addr)) {
				miss++
				cost += CostMissMemory
			} else {
				hit++
				cost += CostMemHitLocal
			}
			memAcc++
			t.regs[o.d] = int64(view.load(addr, uint8(o.arg)))
		case opStore, opStoreImm:
			if !allowMem {
				break loop
			}
			addr := mem.Addr(t.regs[o.a] + o.imm)
			v := uint64(t.regs[o.b])
			if o.kind == opStoreImm {
				addr, v = mem.Addr(t.regs[o.a]), uint64(o.imm)
			}
			if priv {
				t.overlay.Put(addr, uint8(o.arg), v)
				cost += CostMemHitLocal
				break
			}
			r := ps.find(addr)
			if r == nil || addr+mem.Addr(o.arg) > r.end {
				break loop
			}
			if r.touch(mem.LineOf(addr)) {
				miss++
				cost += CostMissMemory
			} else {
				hit++
				cost += CostMemHitLocal
			}
			memAcc++
			view.store(addr, uint8(o.arg), v)
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
		case opBadALU:
			panic(unknownALU(&m.prog.Instrs[t.pc], t.pc))
		default:
			// Atomics, fences, SSB operations, alias checks, halt: all
			// globally visible; the scheduler retires them.
			break loop
		}
		clk += cost
		steps++
		t.pc = next
	}
	st.res = segResult{clock: clk, steps: steps, mem: memAcc, miss: miss, hit: hit}
}

// stepOne executes exactly one instruction of t on core c — the engine's
// serial retirement of a global event (and of the first instruction after
// a target boundary, whatever it is). It is the routed batch interpreter
// driven with zero bounds: the batch loop always retires one instruction
// before checking them, so the semantics — memory routing, probe timing,
// halt handling — are runBatch's own, with no second interpreter copy to
// keep in sync. Returns true when the thread halted (the thread is
// removed from its queue, as in the serial batch loop).
func (m *Machine) stepOne(t *thread, c int) bool {
	return m.runBatch(t, c, 0, 0, true)
}
