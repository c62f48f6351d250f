package pebs

// Serializable PMU snapshots. The only awkward piece is the imprecision
// RNG: math/rand generators cannot be serialized, but every call into
// the underlying source (Int63 or Uint64) advances its state by exactly
// one step, so a single draw counter pins the position. countingSource
// wraps the stock source with that counter — it delegates without
// altering the sequence — and restore moves the source forward to the
// recorded number of draws.

import (
	"fmt"
	"math/rand"
)

type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// State is a snapshot of a Unit: the RNG position, per-core HITM
// counters, undelivered buffered records, and the sampling stats.
type State struct {
	Draws   uint64
	Counter []int
	Buf     [][]Record
	Stats   Stats
}

// CaptureState snapshots the PMU.
func (u *Unit) CaptureState() *State {
	st := &State{
		Draws:   u.src.n,
		Counter: append([]int(nil), u.counter...),
		Buf:     make([][]Record, len(u.buf)),
		Stats:   u.stats,
	}
	for c, recs := range u.buf {
		if len(recs) > 0 {
			st.Buf[c] = append([]Record(nil), recs...)
		}
	}
	return st
}

// RestoreState rewinds the PMU to the snapshot: its source is moved to
// the recorded draw count, so the next random value is exactly the one
// the captured unit would have produced. A source that has not passed
// that count — a freshly built unit's sits at zero — is advanced in
// place; one that has is reseeded with the configured seed first.
// Seeding is the expensive step, so a restore onto a new unit pays it
// once, in New.
func (u *Unit) RestoreState(st *State) error {
	if len(st.Counter) != len(u.counter) || len(st.Buf) != len(u.buf) {
		return fmt.Errorf("pebs: snapshot for %d cores, unit has %d", len(st.Counter), len(u.counter))
	}
	if u.src.n > st.Draws {
		u.src.Seed(u.cfg.Seed)
	}
	for ; u.src.n < st.Draws; u.src.n++ {
		u.src.src.Uint64()
	}
	copy(u.counter, st.Counter)
	for c := range u.buf {
		u.buf[c] = nil
		if len(st.Buf[c]) > 0 {
			u.buf[c] = append([]Record(nil), st.Buf[c]...)
		}
	}
	u.stats = st.Stats
	return nil
}
