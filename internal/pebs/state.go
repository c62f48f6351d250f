package pebs

// Serializable PMU snapshots. The only awkward piece is the imprecision
// RNG: math/rand generators cannot be serialized, but every call into
// the underlying source (Int63 or Uint64) advances its state by exactly
// one step, so a single draw counter pins the position. countingSource
// wraps the stock source with that counter — it delegates without
// altering the sequence — and restore moves the source forward to the
// recorded number of draws.
//
// Seeding a math/rand source is the expensive step (it fills a 607-word
// table), and most units never draw: a session without HITMs samples
// nothing. So the source is built at the first draw, from the kept seed.

import (
	"fmt"
	"math/rand"
)

type countingSource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
	n    uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// source returns the seeded source, building it on first use.
func (c *countingSource) source() rand.Source64 {
	if c.src == nil {
		c.src = rand.NewSource(c.seed).(rand.Source64)
	}
	return c.src
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.source().Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.source().Uint64()
}

// Seed rewinds the source to the start of seed's sequence; the next draw
// builds it.
func (c *countingSource) Seed(seed int64) {
	c.seed, c.src, c.n = seed, nil, 0
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
// place; one that has is rewound to the configured seed first. A restore
// to zero draws leaves the source unbuilt, so it never seeds.
func (u *Unit) RestoreState(st *State) error {
	if len(st.Counter) != len(u.counter) || len(st.Buf) != len(u.buf) {
		return fmt.Errorf("pebs: snapshot for %d cores, unit has %d", len(st.Counter), len(u.counter))
	}
	if u.src.n > st.Draws {
		u.src.Seed(u.cfg.Seed)
	}
	for u.src.n < st.Draws {
		u.src.Uint64()
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
