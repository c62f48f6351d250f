package machine

// Serializable whole-machine snapshots, for the durable session layer.
// CaptureState is only meaningful when the machine is stopped at a
// RunFor boundary: the intra-run parallel engine settles every in-flight
// segment before RunFor returns, so at a boundary the threads, clocks,
// memory and coherence directory are exactly the serial scheduler's
// state. RestoreState is designed for a machine freshly constructed
// from the same program/config/thread specs (the session layer rebuilds
// the machine from the workload image, then overwrites it with the
// snapshot); every captured field is restored exactly, so a restored
// machine retires the identical remaining instruction/event sequence an
// uninterrupted twin would.

import (
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/mem"
)

// SSBLine is one buffered cache line of a store buffer or Sheriff
// overlay, in first-touch order.
type SSBLine struct {
	Line mem.Line
	Data [mem.LineSize]byte
	Mask uint64
}

// TxnSnap is a pending SSB-flush HTM transaction window.
type TxnSnap struct {
	Lines    []mem.Line
	End      uint64
	Aborted  bool
	Attempts int
}

// ThreadState is the architectural state of one simulated thread.
type ThreadState struct {
	Regs      [256]int64
	PC        int
	CallStack []int
	Halted    bool
	SSB       []SSBLine // LASERREPAIR store buffer, nil/empty when inactive
	Txn       *TxnSnap
	Overlay   []SSBLine // Sheriff private-memory overlay contents
}

// PageState is one 4 KiB memory page.
type PageState struct {
	PageNo uint64
	Data   []byte
}

// PCCount is one ground-truth HITM program counter and its count.
type PCCount struct {
	PC    mem.Addr
	Count uint64
}

// PrivRangeState is one thread-private range's first-touch bitmap from
// the intra-run parallel engine (the only semantic engine state; the
// dispatch heuristics are policy and deliberately not captured).
type PrivRangeState struct {
	Start, End mem.Addr
	Bits       []uint64
}

// State is a whole-machine snapshot. It is canonical for a given
// machine state: pages are sorted by page number, HITM PCs by PC, and
// the embedded coherence state is line-sorted, so two machines in the
// same simulated state capture byte-identical gob encodings.
type State struct {
	Cores      int
	Parallel   bool // intra-run engine active at capture
	Threads    []ThreadState
	Pages      []PageState
	RunQ       [][]int
	Cur        []int
	QuantumEnd []uint64
	Clock      []uint64
	ProgGen    uint64
	Coherence  *coherence.State
	Stats      Stats
	HITMPCs    []PCCount
	PrivBits   [][]PrivRangeState // per thread; nil rows for threads without private ranges
}

func captureSSB(s *SSB) []SSBLine {
	if s == nil || !s.Active() {
		return nil
	}
	out := make([]SSBLine, 0, s.Len())
	for _, l := range s.Lines() {
		data, mask, _ := s.Entry(l)
		out = append(out, SSBLine{Line: l, Data: data, Mask: mask})
	}
	return out
}

// setEntries rebuilds the buffer to hold exactly the given lines, in
// the given (first-touch) order.
func (s *SSB) setEntries(lines []SSBLine) {
	s.Clear()
	for i := range lines {
		e := &ssbEntry{data: lines[i].Data, mask: lines[i].Mask}
		s.entries[lines[i].Line] = e
		s.order = append(s.order, lines[i].Line)
	}
}

// add merges a pre-counted PC into the table (snapshot restore).
func (p *pcCounts) add(pc mem.Addr, n uint64) {
	if p.keys == nil {
		p.keys = make([]mem.Addr, 64)
		p.counts = make([]uint64, 64)
	}
	mask := uint64(len(p.keys) - 1)
	i := (uint64(pc) * 0x9e3779b97f4a7c15 >> 32) & mask
	for {
		switch p.keys[i] {
		case pc:
			p.counts[i] += n
			return
		case 0:
			if 4*(p.used+1) > 3*len(p.keys) {
				p.grow()
				p.add(pc, n)
				return
			}
			p.keys[i] = pc
			p.counts[i] = n
			p.used++
			return
		}
		i = (i + 1) & mask
	}
}

func (p *pcCounts) reset() {
	p.keys = nil
	p.counts = nil
	p.used = 0
}

// capturePages flattens the sparse memory into sorted (pageNo, bytes)
// pairs. Every allocated page is recorded, including all-zero ones, so
// restore can rebuild the identical page set (twin captures compare
// equal byte for byte).
func (m *memory) capturePages() []PageState {
	var nos []uint64
	for cn, ch := range m.chunks {
		for pi, p := range ch {
			if p != nil {
				nos = append(nos, cn<<chunkBits|uint64(pi))
			}
		}
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	out := make([]PageState, len(nos))
	for i, pn := range nos {
		p := m.pageSlow(pn, false)
		data := make([]byte, pageSize)
		copy(data, p[:])
		out[i] = PageState{PageNo: pn, Data: data}
	}
	return out
}

// reset drops every page and lookup cache, preserving the engine's
// page-table lock wiring.
func (m *memory) reset() {
	m.chunks = make(map[uint64]*pageChunk)
	m.lastPageNo = ^uint64(0)
	m.lastPage = nil
	m.prevPageNo = ^uint64(0)
	m.prevPage = nil
	m.lastChunkNo = ^uint64(0)
	m.lastChunk = nil
}

func (m *memory) restorePages(pages []PageState) error {
	m.reset()
	for i := range pages {
		if len(pages[i].Data) != pageSize {
			return fmt.Errorf("machine: snapshot page %#x has %d bytes", pages[i].PageNo, len(pages[i].Data))
		}
		p := m.pageSlow(pages[i].PageNo, true)
		copy(p[:], pages[i].Data)
	}
	return nil
}

// CaptureState snapshots the machine. Only valid while the machine is
// stopped at a RunFor boundary (no segments in flight, no goroutine
// touching it).
func (m *Machine) CaptureState() *State {
	m.finishStats()
	st := &State{
		Cores:      m.cfg.Cores,
		Parallel:   m.eng != nil,
		Pages:      m.data.capturePages(),
		RunQ:       make([][]int, len(m.runq)),
		Cur:        append([]int(nil), m.cur...),
		QuantumEnd: append([]uint64(nil), m.quantumEnd...),
		Clock:      append([]uint64(nil), m.clock...),
		ProgGen:    m.progGen,
		Coherence:  m.coh.CaptureState(),
	}
	for c, q := range m.runq {
		st.RunQ[c] = append([]int(nil), q...)
	}
	st.Threads = make([]ThreadState, len(m.threads))
	for i, t := range m.threads {
		ts := &st.Threads[i]
		ts.Regs = t.regs
		ts.PC = t.pc
		ts.CallStack = append([]int(nil), t.callStack...)
		ts.Halted = t.halted
		ts.SSB = captureSSB(t.ssb)
		ts.Overlay = captureSSB(t.overlay)
		if t.txn != nil {
			ts.Txn = &TxnSnap{
				Lines:    append([]mem.Line(nil), t.txn.lines...),
				End:      t.txn.end,
				Aborted:  t.txn.aborted,
				Attempts: t.txn.attempts,
			}
		}
	}
	// Stats: deep-copy the derived containers so later machine progress
	// cannot mutate the snapshot.
	st.Stats = m.stats
	st.Stats.CoreCycles = append([]uint64(nil), m.stats.CoreCycles...)
	st.Stats.HITMByPC = nil // rebuilt from HITMPCs on restore
	for i, k := range m.hitmPCs.keys {
		if k != 0 {
			st.HITMPCs = append(st.HITMPCs, PCCount{PC: k, Count: m.hitmPCs.counts[i]})
		}
	}
	sort.Slice(st.HITMPCs, func(i, j int) bool { return st.HITMPCs[i].PC < st.HITMPCs[j].PC })
	if m.eng != nil {
		st.PrivBits = make([][]PrivRangeState, len(m.eng.priv))
		for tid, ps := range m.eng.priv {
			if ps == nil {
				continue
			}
			rows := make([]PrivRangeState, len(ps.ranges))
			for i := range ps.ranges {
				r := &ps.ranges[i]
				rows[i] = PrivRangeState{Start: r.start, End: r.end, Bits: append([]uint64(nil), r.bits...)}
			}
			st.PrivBits[tid] = rows
		}
	}
	return st
}

// RestoreState overwrites the machine with the snapshot. The machine
// must have been constructed from the same program, config and thread
// specs the captured machine was (the caller verifies that via the
// session config fingerprint); mismatched shapes are rejected here.
func (m *Machine) RestoreState(st *State) error {
	if st.Cores != m.cfg.Cores {
		return fmt.Errorf("machine: snapshot for %d cores, machine has %d", st.Cores, m.cfg.Cores)
	}
	if len(st.Threads) != len(m.threads) {
		return fmt.Errorf("machine: snapshot has %d threads, machine has %d", len(st.Threads), len(m.threads))
	}
	if st.Parallel != (m.eng != nil) {
		return fmt.Errorf("machine: snapshot parallel=%v, machine parallel=%v (intra-run engine state is not portable across engines)",
			st.Parallel, m.eng != nil)
	}
	if len(st.RunQ) != len(m.runq) || len(st.Cur) != len(m.cur) ||
		len(st.QuantumEnd) != len(m.quantumEnd) || len(st.Clock) != len(m.clock) {
		return fmt.Errorf("machine: snapshot scheduler shape mismatch")
	}
	if err := m.coh.RestoreState(st.Coherence); err != nil {
		return err
	}
	if err := m.data.restorePages(st.Pages); err != nil {
		return err
	}
	m.activeTxns = 0
	for i, t := range m.threads {
		ts := &st.Threads[i]
		t.regs = ts.Regs
		t.pc = ts.PC
		t.callStack = append([]int(nil), ts.CallStack...)
		t.halted = ts.Halted
		if len(ts.SSB) > 0 {
			if t.ssb == nil {
				t.ssb = NewSSB()
			}
			t.ssb.setEntries(ts.SSB)
		} else if t.ssb != nil {
			t.ssb.Clear()
		}
		if t.overlay != nil {
			t.overlay.setEntries(ts.Overlay)
		} else if len(ts.Overlay) > 0 {
			return fmt.Errorf("machine: snapshot thread %d has an overlay but PrivateMemory is off", i)
		}
		t.txn = nil
		if ts.Txn != nil {
			t.txn = &txnState{
				lines:    append([]mem.Line(nil), ts.Txn.Lines...),
				end:      ts.Txn.End,
				aborted:  ts.Txn.Aborted,
				attempts: ts.Txn.Attempts,
			}
			m.activeTxns++
		}
	}
	for c := range m.runq {
		m.runq[c] = append([]int(nil), st.RunQ[c]...)
	}
	copy(m.cur, st.Cur)
	copy(m.quantumEnd, st.QuantumEnd)
	copy(m.clock, st.Clock)
	m.progGen = st.ProgGen
	m.active = m.active[:0]
	for c := range m.runq {
		if len(m.runq[c]) > 0 {
			if m.cur[c] >= len(m.runq[c]) {
				return fmt.Errorf("machine: snapshot cur[%d]=%d out of range", c, m.cur[c])
			}
			m.active = append(m.active, c)
			m.curThread[c] = m.threads[m.runq[c][m.cur[c]]]
		} else {
			m.curThread[c] = nil
		}
	}
	// Stats: scalars from the snapshot; derived containers rebuilt.
	cc := m.stats.CoreCycles
	byPC := m.stats.HITMByPC
	m.stats = st.Stats
	m.stats.CoreCycles = cc
	if byPC == nil {
		byPC = make(map[mem.Addr]uint64)
	}
	m.stats.HITMByPC = byPC
	m.hitmPCs.reset()
	for _, pc := range st.HITMPCs {
		m.hitmPCs.add(pc.PC, pc.Count)
	}
	if m.eng != nil {
		if err := m.eng.restorePrivBits(st.PrivBits); err != nil {
			return err
		}
		// Worker page caches may hold pointers into the pre-restore page
		// table; drop them (pointers are stable only within one table).
		for _, v := range m.eng.views {
			v.pages = make(map[uint64]*[pageSize]byte)
			v.lastNo = ^uint64(0)
			v.last = nil
		}
		// Dispatch heuristics are policy-only (results are byte-identical
		// on every path); start them from the constructor's state.
		for c := range m.eng.state {
			m.eng.state[c].status = segIdle
			m.eng.state[c].ema = m.eng.threshold
			m.eng.state[c].probe = 0
		}
	}
	m.finishStats()
	return nil
}

// restorePrivBits overwrites the engine's per-thread first-touch
// bitmaps. The engine rebuilds its ranges deterministically from the
// program and config, so the snapshot rows must match them exactly.
func (e *engine) restorePrivBits(rows [][]PrivRangeState) error {
	if len(rows) != len(e.priv) && rows != nil {
		return fmt.Errorf("machine: snapshot has %d private-range rows, engine has %d threads", len(rows), len(e.priv))
	}
	for tid, ps := range e.priv {
		var row []PrivRangeState
		if tid < len(rows) {
			row = rows[tid]
		}
		if ps == nil {
			if len(row) > 0 {
				return fmt.Errorf("machine: snapshot thread %d has private ranges, engine has none", tid)
			}
			continue
		}
		if len(row) != len(ps.ranges) {
			return fmt.Errorf("machine: snapshot thread %d has %d private ranges, engine has %d", tid, len(row), len(ps.ranges))
		}
		for i := range ps.ranges {
			r := &ps.ranges[i]
			if row[i].Start != r.start || row[i].End != r.end || len(row[i].Bits) != len(r.bits) {
				return fmt.Errorf("machine: snapshot thread %d private range %d mismatch", tid, i)
			}
			copy(r.bits, row[i].Bits)
		}
		ps.last = 0
	}
	return nil
}
