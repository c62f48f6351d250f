package machine

import (
	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
)

// access runs the coherence transaction for one access, charges the probe
// for HITM events, and aborts any remote SSB-flush transactions that hold
// the line (the HTM conflict-detection path). NOTE: runBatch's OpLoad and
// OpStore arms repeat this body inline (the compiler declines to inline
// it, and the call frame is measurable there) — any change to the
// sequence below must be mirrored in both arms.
func (m *Machine) access(t *thread, c int, in *isa.Instr, addr mem.Addr, write bool) uint64 {
	// Under the intra-run parallel engine, lines private to the
	// executing thread never enter the shared directory; the engine
	// charges their (trivial, single-owner) MESI outcomes from the
	// thread-local first-touch table instead, on every path — segments
	// and serial retirement alike — so each line is accounted in exactly
	// one place for the whole run. Private lines can neither HITM nor
	// conflict with an SSB-flush transaction (transactions buffer only
	// lines their own thread wrote), so skipping those steps is exact.
	if e := m.eng; e != nil {
		if cost, ok := e.privAccess(t, addr); ok {
			return cost
		}
	}
	m.stats.MemAccesses++
	res := m.coh.Access(c, addr, write)
	if m.activeTxns > 0 {
		m.abortConflictingTxns(t, addr)
	}
	if res.Result.IsHITM() {
		m.noteHITM(t, c, in, addr, write, res)
	}
	return costTable[res.Result&7]
}

// abortConflictingTxns aborts any remote in-flight SSB-flush transaction
// holding the line of addr (HTM conflict detection, §5.5).
func (m *Machine) abortConflictingTxns(t *thread, addr mem.Addr) {
	line := mem.LineOf(addr)
	for _, other := range m.threads {
		if other == t || other.txn == nil || other.txn.aborted {
			continue
		}
		for _, tl := range other.txn.lines {
			if tl == line {
				other.txn.aborted = true
				break
			}
		}
	}
}

// noteHITM records a HITM in the ground-truth PC counts and charges the
// probe (PEBS assist / driver interrupt cycles).
func (m *Machine) noteHITM(t *thread, c int, in *isa.Instr, addr mem.Addr, write bool, res coherence.Access) {
	m.hitmPCs.bump(in.PC)
	if m.cfg.Probe != nil {
		extra := m.cfg.Probe.OnHITM(HITMEvent{
			Core:       c,
			Thread:     t.id,
			InstrIndex: t.pc,
			PC:         in.PC,
			Addr:       addr,
			IsLoad:     !write,
			Size:       in.Size,
			Now:        m.clock[c],
		})
		m.clock[c] += extra
		m.stats.ProbeCycles += extra
	}
}

// memLoad implements OpLoad in both the normal and private-memory modes.
func (m *Machine) memLoad(t *thread, c int, in *isa.Instr, addr mem.Addr) (uint64, uint64) {
	if m.cfg.PrivateMemory {
		v, _ := t.overlay.Get(addr, in.Size, m.data.load)
		return v, CostMemHitLocal
	}
	cost := m.access(t, c, in, addr, false)
	return m.data.load(addr, in.Size), cost
}

// memStore implements OpStore in both modes.
func (m *Machine) memStore(t *thread, c int, in *isa.Instr, addr mem.Addr, v uint64) uint64 {
	if m.cfg.PrivateMemory {
		t.overlay.Put(addr, in.Size, v)
		return CostMemHitLocal
	}
	cost := m.access(t, c, in, addr, true)
	m.data.store(addr, in.Size, v)
	return cost
}

// execCAS implements the atomic compare-and-swap; under private memory it
// is a commit point operating on shared memory directly.
func (m *Machine) execCAS(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	var cost uint64
	if m.cfg.PrivateMemory {
		cost = m.commitOverlay(t, c) + CostMemHitLocal + CostAtomicExtra
	} else {
		cost = m.access(t, c, in, addr, true) + CostAtomicExtra
		cost += m.fencePoint(t, c)
	}
	old := m.data.load(addr, in.Size)
	if old == truncate(uint64(t.regs[in.Rs2]), in.Size) {
		m.data.store(addr, in.Size, uint64(t.regs[in.Rs3]))
		t.regs[in.Rd] = 1
	} else {
		t.regs[in.Rd] = 0
	}
	return cost
}

// execFetchAdd implements the atomic fetch-and-add.
func (m *Machine) execFetchAdd(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	var cost uint64
	if m.cfg.PrivateMemory {
		cost = m.commitOverlay(t, c) + CostMemHitLocal + CostAtomicExtra
	} else {
		cost = m.access(t, c, in, addr, true) + CostAtomicExtra
		cost += m.fencePoint(t, c)
	}
	old := m.data.load(addr, in.Size)
	m.data.store(addr, in.Size, old+uint64(t.regs[in.Rs2]))
	t.regs[in.Rd] = int64(old)
	return cost
}

func truncate(v uint64, size uint8) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

// fencePoint implements TSO fence obligations: the SSB must be flushed
// (§5.4); under private memory a fence is a commit point. Fences drain the
// buffer synchronously (the fence cannot retire until the flush commits),
// unlike the windowed transaction used by scheduled OpSSBFlush sites.
func (m *Machine) fencePoint(t *thread, c int) uint64 {
	if m.cfg.PrivateMemory {
		return m.commitOverlay(t, c)
	}
	if t.ssb != nil && t.ssb.Active() {
		cost := uint64(CostSSBFlushBase) + uint64(t.ssb.Len())*CostSSBFlushLine
		m.applySSB(t, c)
		t.ssb.Clear()
		m.stats.Flushes++
		return cost
	}
	return 0
}

// commitOverlay publishes a thread's private writes at a synchronization
// point (the Sheriff execution model) and charges the diff/commit cost.
func (m *Machine) commitOverlay(t *thread, c int) uint64 {
	lines := t.overlay.Lines()
	cost := uint64(CostCommitBase)
	pages := map[uint64]bool{}
	writes := make([]LineWrite, 0, len(lines))
	for _, l := range lines {
		data, mask, _ := t.overlay.Entry(l)
		for i := 0; i < mem.LineSize; i++ {
			if mask&(1<<uint(i)) != 0 {
				m.data.storeByte(mem.Addr(l)+mem.Addr(i), data[i])
			}
		}
		pages[uint64(l)/pageSize] = true
		writes = append(writes, LineWrite{Line: l, Mask: mask})
	}
	cost += uint64(len(pages)) * CostCommitDirtyPage
	if m.cfg.OnCommit != nil {
		cost += m.cfg.OnCommit(t.id, writes, m.clock[c])
	}
	t.overlay.Clear()
	m.stats.Commits++
	m.stats.CommitCycles += cost
	return cost
}

// ssbStore implements OpSSBStore (Figure 6, top): the store is buffered in
// the thread-private SSB instead of becoming globally visible.
func (m *Machine) ssbStore(t *thread, c int, in *isa.Instr, addr mem.Addr, v uint64) uint64 {
	if t.ssb == nil {
		t.ssb = NewSSB()
	}
	cost := uint64(CostSSBOp)
	if !t.ssb.Active() {
		cost = CostSSBIdle + CostSSBOp // first store re-activates the buffer
	}
	t.ssb.Put(addr, in.Size, v)
	m.stats.SSBStores++
	if t.ssb.Len() > SSBCapacity {
		// Pre-emptive flush to stay within HTM capacity (§5.5).
		cost += m.startFlush(t, c)
	}
	return cost
}

// ssbLoad implements OpSSBLoad (Figure 6, bottom): the load consults the
// SSB and falls back to shared memory for unbuffered bytes.
func (m *Machine) ssbLoad(t *thread, c int, in *isa.Instr, addr mem.Addr) (uint64, uint64) {
	m.stats.SSBLoads++
	if t.ssb == nil || !t.ssb.Active() {
		cost := m.access(t, c, in, addr, false)
		return m.data.load(addr, in.Size), cost + CostSSBIdle
	}
	v, hit := t.ssb.Get(addr, in.Size, m.data.load)
	cost := uint64(CostSSBOp)
	if !hit {
		// Entirely from shared memory: a normal coherent load.
		cost += m.access(t, c, in, addr, false)
	}
	return v, cost
}

// startFlush begins the HTM transaction that publishes the SSB (§5.5).
// The transaction occupies a time window during which remote accesses to
// buffered lines abort it; resolution happens in resolveTxn.
func (m *Machine) startFlush(t *thread, c int) uint64 {
	if t.ssb == nil || !t.ssb.Active() {
		return CostSSBIdle
	}
	n := uint64(t.ssb.Len())
	dur := uint64(CostSSBFlushBase) + n*CostSSBFlushLine
	t.txn = &txnState{lines: append([]mem.Line(nil), t.ssb.Lines()...), end: m.clock[c] + dur}
	m.activeTxns++
	return 0 // time passes via the transaction window
}

// resolveTxn completes or retries a flush transaction whose window ended.
func (m *Machine) resolveTxn(t *thread, c int) {
	txn := t.txn
	if txn.aborted {
		m.stats.FlushAborts++
		txn.attempts++
		if txn.attempts >= HTMMaxRetries {
			// Serialized fallback: apply immediately at a higher cost.
			m.stats.HTMFallbacks++
			m.clock[c] += CostHTMFallback
			m.applySSB(t, c)
			t.ssb.Clear()
			t.txn = nil
			m.activeTxns--
			m.stats.Flushes++
			return
		}
		// Retry with backoff: a fresh window, twice as long.
		dur := (uint64(CostSSBFlushBase) + uint64(len(txn.lines))*CostSSBFlushLine) << uint(txn.attempts)
		txn.aborted = false
		txn.end = m.clock[c] + dur
		return
	}
	m.applySSB(t, c)
	t.ssb.Clear()
	t.txn = nil
	m.activeTxns--
	m.stats.Flushes++
}

// applySSB writes every buffered line to shared memory through the
// coherence model. Within a committed transaction the writes are strongly
// atomic — no remote thread observes a prefix (§5.5).
func (m *Machine) applySSB(t *thread, c int) {
	for _, l := range t.ssb.Lines() {
		data, mask, _ := t.ssb.Entry(l)
		// One coherence transaction per line; use the flush site as PC.
		in := &m.prog.Instrs[t.pc]
		m.clock[c] += m.access(t, c, in, mem.Addr(l), true)
		for i := 0; i < mem.LineSize; i++ {
			if mask&(1<<uint(i)) != 0 {
				m.data.storeByte(mem.Addr(l)+mem.Addr(i), data[i])
			}
		}
	}
}

// execAliasCheck validates speculative alias analysis (§5.3): if the
// checked address aliases a buffered line, the SSB is flushed through the
// fallback path and the repair controller is notified so it can fall back
// to conservative instrumentation.
func (m *Machine) execAliasCheck(t *thread, c int, in *isa.Instr) uint64 {
	addr := mem.Addr(t.regs[in.Rs1] + in.Imm)
	cost := uint64(CostAliasCheck)
	if t.ssb != nil && t.ssb.Active() && t.ssb.ContainsLine(mem.LineOf(addr)) {
		m.stats.AliasMisses++
		cost += CostHTMFallback
		m.applySSB(t, c)
		t.ssb.Clear()
		m.stats.Flushes++
		if m.cfg.OnAliasMiss != nil {
			m.cfg.OnAliasMiss(t.id, in.PC)
		}
	}
	return cost
}
