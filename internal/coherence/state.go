package coherence

// Serializable snapshots of the coherence directory, for the durable
// session layer: CaptureState flattens the open-addressed table into a
// canonical (line-sorted) entry list, RestoreState rebuilds an
// equivalent directory. The rebuilt table may hash entries into
// different slots (insertion order differs from the original access
// history), but slot placement is unobservable: every Access outcome
// depends only on the per-line state and the counters, both of which
// round-trip exactly.

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// LineEntry is the public form of one tracked line's MESI state.
type LineEntry struct {
	Line     mem.Line
	Sharers  uint64
	Owner    int8
	Modified bool
}

// State is a snapshot of a Model, canonical for a given directory
// content: entries are sorted by line address.
type State struct {
	Cores   int
	Entries []LineEntry
	Counts  [len(resultNames)]uint64
}

// CaptureState snapshots the directory. The model must not be accessed
// concurrently.
func (m *Model) CaptureState() *State {
	st := &State{Cores: m.cores, Counts: m.Counts}
	st.Entries = make([]LineEntry, 0, m.used)
	for i := range m.slots {
		s := &m.slots[i]
		if s.ctrl != slotUsed {
			continue
		}
		st.Entries = append(st.Entries, LineEntry{
			Line:     s.line,
			Sharers:  s.state.sharers,
			Owner:    s.state.owner,
			Modified: s.state.modified,
		})
	}
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Line < st.Entries[j].Line })
	return st
}

// RestoreState resets the directory to exactly the captured state. The
// backing table is reused when it holds the snapshot's lines under
// stateOf's 3/4 load rule, and otherwise replaced once by a table that
// does, so the inserts below never grow it; stale recently-used slot
// indices self-validate so no cache bookkeeping is needed.
func (m *Model) RestoreState(st *State) error {
	if st.Cores != m.cores {
		return fmt.Errorf("coherence: snapshot for %d cores, model has %d", st.Cores, m.cores)
	}
	size := len(m.slots)
	for 4*len(st.Entries) > 3*size {
		size *= 2
	}
	if size > len(m.slots) {
		m.slots, m.mask = make([]slot, size), uint64(size-1)
	}
	m.Reset()
	for i := range st.Entries {
		e := &st.Entries[i]
		if e.Owner >= int8(m.cores) {
			return fmt.Errorf("coherence: snapshot line %#x owner %d out of range", uint64(e.Line), e.Owner)
		}
		ls := m.stateOf(e.Line)
		ls.sharers = e.Sharers
		ls.owner = e.Owner
		ls.modified = e.Modified
	}
	m.Counts = st.Counts
	return nil
}
