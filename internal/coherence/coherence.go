// Package coherence implements a line-granular MESI cache coherence model
// for the simulated multicore. It is the substrate that generates HITM
// events: a HITM occurs when a core's memory access hits a line that is in
// Modified state in a remote cache (§2, Figure 1 of the paper). The model
// tracks per-line ownership and sharers; capacity and associativity are not
// modelled (contention, not capacity, is what LASER measures).
package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// MaxCores bounds the number of cores (sharers are a uint64 bitmask).
const MaxCores = 64

// Result classifies the outcome of one access; the machine maps each class
// to a cycle cost.
type Result uint8

// Access outcomes.
const (
	// HitLocal: the line was already valid in the requesting core's cache
	// with sufficient permission.
	HitLocal Result = iota
	// HitShared: read hit on a line this core shares with others.
	HitShared
	// MissMemory: the line came from memory (no cached copy anywhere).
	MissMemory
	// MissRemoteClean: the line came from a remote cache in clean
	// (Exclusive/Shared) state; no HITM.
	MissRemoteClean
	// HITMLoad: a load hit a remote Modified line (Figure 1a). This is
	// the event Haswell reports precisely.
	HITMLoad
	// HITMStore: a store hit a remote Modified line (Figure 1c). Haswell
	// records these imprecisely (§3.1).
	HITMStore
	// Upgrade: a store to a line held Shared; remote copies were
	// invalidated but none was Modified (Figure 1b seen from the writer).
	Upgrade
)

var resultNames = [...]string{
	"HitLocal", "HitShared", "MissMemory", "MissRemoteClean",
	"HITMLoad", "HITMStore", "Upgrade",
}

// String names the result class.
func (r Result) String() string {
	if int(r) < len(resultNames) {
		return resultNames[r]
	}
	return fmt.Sprintf("Result(%d)", uint8(r))
}

// IsHITM reports whether the access triggered a HITM coherence event.
func (r Result) IsHITM() bool { return r == HITMLoad || r == HITMStore }

// lineState tracks one cache line across all cores.
type lineState struct {
	sharers  uint64 // bitmask of cores with a valid copy
	owner    int8   // core holding the line M or E; -1 when shared/invalid
	modified bool   // owner's copy is dirty (M rather than E)
}

// Slot control states of the open-addressed directory table.
const (
	slotEmpty uint8 = iota
	slotUsed
	slotTomb // deleted; probe chains continue through it
)

// slot is one open-addressed table entry: the line key plus the coherence
// state stored inline, so the per-access hot path touches exactly one cache
// line of the host and never allocates.
type slot struct {
	line  mem.Line
	ctrl  uint8
	state lineState
}

// minTableSize is the initial directory capacity (a power of two). It is
// small because many machines are built and few touch many shared lines:
// growth doubles the table as lines arrive, and slot placement is
// unobservable (see state.go), so the start size changes only speed.
const minTableSize = 64

// Access is the detailed outcome of Model.Access.
type Access struct {
	Result Result
	// Remote is the core whose Modified copy serviced a HITM, or -1.
	Remote int
}

// Model is the coherence directory for one machine. The zero value is not
// usable; call NewModel.
//
// The directory is an open-addressed (linear probing) flat table of inline
// lineState values rather than a map of heap pointers: Access is the
// single hottest call of the whole simulator, and the flat layout makes it
// one hash, a short probe, and in-place mutation — no pointer chasing and
// zero allocations in steady state.
type Model struct {
	cores int

	slots []slot
	mask  uint64
	used  int // live entries
	tombs int // tombstones from Invalidate

	// lastIdx/prevIdx remember the slots of the two most recent distinct
	// accesses; workloads alternate between a private line and a shared
	// one, so consecutive accesses very often hit one of the two and
	// skip the hash+probe entirely. The cached indices self-validate
	// (ctrl and line are re-checked), so growth, Invalidate and Reset
	// need no bookkeeping here.
	lastIdx uint64
	prevIdx uint64

	// Stats, by result class.
	Counts [len(resultNames)]uint64
}

// NewModel returns a directory for the given core count.
func NewModel(cores int) *Model { return newModel(cores, minTableSize) }

// newModel returns a directory whose table starts at size slots, a power
// of two.
func newModel(cores, size int) *Model {
	if cores <= 0 || cores > MaxCores {
		panic(fmt.Sprintf("coherence: bad core count %d", cores))
	}
	return &Model{
		cores: cores,
		slots: make([]slot, size),
		mask:  uint64(size - 1),
	}
}

// Cores returns the number of cores the model was built for.
func (m *Model) Cores() int { return m.cores }

// hashLine mixes the line address (murmur3 finalizer) so that linear
// probing over the power-of-two table stays well distributed even though
// real line addresses are themselves highly regular.
func hashLine(l mem.Line) uint64 {
	x := uint64(l) >> mem.LineShift
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// stateOf returns the directory entry for line, inserting a fresh Invalid
// entry if the line has never been tracked. The returned pointer is valid
// until the next stateOf call (growth may move slots).
func (m *Model) stateOf(line mem.Line) *lineState {
	// Keep the load factor (including tombstones) at or below 3/4 so
	// probe chains stay short; growing here, before the probe, means the
	// pointer returned below is never invalidated by a rehash.
	if 4*(m.used+m.tombs+1) > 3*len(m.slots) {
		m.grow()
	}
	i := hashLine(line) & m.mask
	firstTomb := -1
	for {
		s := &m.slots[i]
		switch s.ctrl {
		case slotUsed:
			if s.line == line {
				m.prevIdx, m.lastIdx = m.lastIdx, i
				return &s.state
			}
		case slotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default: // slotEmpty: insert
			if firstTomb >= 0 {
				i = uint64(firstTomb)
				s = &m.slots[i]
				m.tombs--
			}
			s.line = line
			s.ctrl = slotUsed
			s.state = lineState{owner: -1}
			m.used++
			m.prevIdx, m.lastIdx = m.lastIdx, i
			return &s.state
		}
		i = (i + 1) & m.mask
	}
}

// grow rehashes into a table sized for the live entries: doubled when
// genuinely full, same-sized when the load was mostly tombstones.
func (m *Model) grow() {
	newSize := len(m.slots)
	if 2*m.used >= len(m.slots) {
		newSize *= 2
	}
	old := m.slots
	m.slots = make([]slot, newSize)
	m.mask = uint64(newSize - 1)
	m.tombs = 0
	for idx := range old {
		s := &old[idx]
		if s.ctrl != slotUsed {
			continue
		}
		i := hashLine(s.line) & m.mask
		for m.slots[i].ctrl == slotUsed {
			i = (i + 1) & m.mask
		}
		m.slots[i] = *s
	}
}

// Access performs the coherence transaction for one memory access by core
// on the line containing addr, and returns its classification. Accesses
// that span two lines are modelled as touching only the first line,
// matching the single data address in a HITM record.
//
// The body keeps the whole transaction in one frame: the recently-used
// slot checks and the MESI state machine run inline, and only a cold miss
// pays the stateOf hash-and-probe call.
func (m *Model) Access(core int, addr mem.Addr, write bool) Access {
	if core < 0 || core >= m.cores {
		panic(fmt.Sprintf("coherence: bad core %d", core))
	}
	line := mem.LineOf(addr)
	var st *lineState
	if s := &m.slots[m.lastIdx]; s.ctrl == slotUsed && s.line == line {
		st = &s.state
	} else if s := &m.slots[m.prevIdx]; s.ctrl == slotUsed && s.line == line {
		m.prevIdx, m.lastIdx = m.lastIdx, m.prevIdx
		st = &s.state
	} else {
		st = m.stateOf(line)
	}
	// The MESI state machine, inline (one frame per access end to end).
	res := Access{Result: HitLocal, Remote: -1}
	bit := uint64(1) << uint(core)
	if !write {
		switch {
		case st.owner == int8(core):
			// Local hit.
		case st.owner >= 0 && st.modified:
			// Remote M: the HITM case of Figure 1a.
			res = Access{Result: HITMLoad, Remote: int(st.owner)}
			st.sharers = (uint64(1) << uint(st.owner)) | bit
			st.owner = -1
			st.modified = false
		case st.owner >= 0:
			// Remote E: clean transfer, both become S.
			res = Access{Result: MissRemoteClean, Remote: -1}
			st.sharers = (uint64(1) << uint(st.owner)) | bit
			st.owner = -1
		case st.sharers&bit != 0:
			res = Access{Result: HitShared, Remote: -1}
		case st.sharers != 0:
			res = Access{Result: MissRemoteClean, Remote: -1}
			st.sharers |= bit
		default:
			// Nobody has it: load exclusive.
			res = Access{Result: MissMemory, Remote: -1}
			st.owner = int8(core)
			st.modified = false
		}
	} else {
		switch {
		case st.owner == int8(core):
			// Local hit, silently dirtying the owned copy.
			st.modified = true
		case st.owner >= 0 && st.modified:
			// Remote M: the write-write HITM of Figure 1c.
			res = Access{Result: HITMStore, Remote: int(st.owner)}
			st.owner = int8(core)
			st.modified = true
			st.sharers = 0
		case st.owner >= 0:
			// Remote E, clean: invalidate and take ownership.
			res = Access{Result: MissRemoteClean, Remote: -1}
			st.owner = int8(core)
			st.modified = true
			st.sharers = 0
		case st.sharers&^bit != 0:
			// Others share: upgrade with invalidations (Figure 1b).
			res = Access{Result: Upgrade, Remote: -1}
			st.owner = int8(core)
			st.modified = true
			st.sharers = 0
		case st.sharers == bit:
			// Sole sharer: silent upgrade.
			st.owner = int8(core)
			st.modified = true
			st.sharers = 0
		default:
			res = Access{Result: MissMemory, Remote: -1}
			st.owner = int8(core)
			st.modified = true
		}
	}
	m.Counts[res.Result]++
	return res
}

// Invalidate drops every cached copy of the line containing addr. Used
// when simulated code is hot-swapped and by tests.
func (m *Model) Invalidate(addr mem.Addr) {
	line := mem.LineOf(addr)
	i := hashLine(line) & m.mask
	for {
		s := &m.slots[i]
		switch s.ctrl {
		case slotUsed:
			if s.line == line {
				s.ctrl = slotTomb
				s.state = lineState{}
				m.used--
				m.tombs++
				return
			}
		case slotEmpty:
			return
		}
		i = (i + 1) & m.mask
	}
}

// Reset clears all coherence state and statistics, reusing the backing
// array (per-run machine reuse never reallocates the directory).
func (m *Model) Reset() {
	clear(m.slots)
	m.used = 0
	m.tombs = 0
	m.Counts = [len(resultNames)]uint64{}
}

// Lines returns the number of lines the directory currently tracks.
func (m *Model) Lines() int { return m.used }

// HITMs returns the total number of HITM events observed.
func (m *Model) HITMs() uint64 { return m.Counts[HITMLoad] + m.Counts[HITMStore] }

// CheckInvariants verifies the single-writer/multiple-reader protocol
// invariants on every tracked line; it returns an error describing the
// first violation. Property tests call this after random access sequences.
func (m *Model) CheckInvariants() error {
	for idx := range m.slots {
		s := &m.slots[idx]
		if s.ctrl != slotUsed {
			continue
		}
		st, line := &s.state, s.line
		if st.owner >= 0 && st.sharers != 0 {
			return fmt.Errorf("line %#x: owner %d coexists with sharers %b",
				uint64(line), st.owner, st.sharers)
		}
		if st.owner < 0 && st.modified {
			return fmt.Errorf("line %#x: modified without owner", uint64(line))
		}
		if st.owner >= int8(m.cores) {
			return fmt.Errorf("line %#x: owner %d out of range", uint64(line), st.owner)
		}
	}
	return nil
}
