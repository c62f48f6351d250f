package experiments

import (
	"fmt"
	"sync"
)

// The run memo. Every simulation the evaluation performs is a pure
// function of its Key, so within one process each is computed once and
// its result shared by every figure, seed and repetition that asks for
// it: concurrent requests for one key wait for a single computation.
// Results live only as long as the process; a later evaluation
// simulates everything again, from the code it was built from.

// Key identifies one deterministic simulation. Every field participates
// in its identity; execution-engine knobs that cannot change simulated
// results (worker counts, intra-run parallelism) must NOT be encoded
// into any field, so one result serves every engine configuration.
type Key struct {
	// Tool is the simulation flavor: "native", "laser", "vtune",
	// "sheriff", "char", ...
	Tool string
	// Workload names the workload (or characterization case family).
	Workload string
	// Scale is the workload scale knob.
	Scale float64
	// Variant distinguishes workload build variants (native/fixed).
	Variant string
	// SAV is the sample-after value, for sampled tools.
	SAV int
	// Seed drives the sampling imprecision model.
	Seed int64
	// Extra is a free-form discriminator for tool-specific knobs
	// (repair on/off, sheriff mode, forced small inputs, ...).
	Extra string
	// Config fingerprints the tool configuration actually used.
	Config string
}

// String renders the key as readable text, the identity a quarantined
// unit reports.
func (k Key) String() string {
	return fmt.Sprintf("tool=%s workload=%q scale=%g variant=%s sav=%d seed=%d extra=%q config=%s",
		k.Tool, k.Workload, k.Scale, k.Variant, k.SAV, k.Seed, k.Extra, k.Config)
}

// memo is a single-flight store of simulation results by Key.
type memo struct {
	mu      sync.Mutex
	flights map[Key]*flight
}

type flight struct {
	once sync.Once
	val  any
	err  error
}

func newMemo() *memo { return &memo{flights: make(map[Key]*flight)} }

// runMemo is the harness's memo; every runner and work unit goes
// through it.
var runMemo = newMemo()

// recall returns runMemo's result for key, computing it on a miss.
// Callers must treat the value as read-only: it is shared.
func recall[T any](key Key, compute func() (T, error)) (T, error) {
	v, _, err := memoize(runMemo, key, compute)
	return v, err
}

// memoize returns m's result for key, running compute on a miss;
// computed reports whether this call ran it. Concurrent calls for one
// key run compute once and share its result.
//
// Failures are not memoized: every caller waiting on a failing flight
// shares its error (the computing caller gets a panic re-raised), but
// the flight is then dropped, so a later call for the key computes
// again. That is what lets the executor's bounded retry absorb
// transient faults: a fault in one attempt does not poison the key for
// the next.
func memoize[T any](m *memo, key Key, compute func() (T, error)) (v T, computed bool, err error) {
	m.mu.Lock()
	f := m.flights[key]
	if f == nil {
		f = &flight{}
		m.flights[key] = f
	}
	m.mu.Unlock()

	var panicked any
	f.once.Do(func() {
		computed = true
		// A panicking compute must not poison the flight (sync.Once
		// counts a panicking f as done, which would leave waiters a nil
		// value and no error): record it as the flight's error for
		// waiters and re-raise it to this caller below.
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				f.err = fmt.Errorf("experiments: compute for %s panicked: %v", key, r)
			}
		}()
		val, err := compute()
		f.val, f.err = val, err
	})
	if f.err != nil {
		// Drop the failed flight so the next call computes again;
		// waiters already holding f still read its shared error.
		m.mu.Lock()
		if m.flights[key] == f {
			delete(m.flights, key)
		}
		m.mu.Unlock()
		if panicked != nil {
			panic(panicked)
		}
		return v, computed, f.err
	}
	// Key.Tool fixes the result type, so this assertion fails only on a
	// programming error.
	return f.val.(T), computed, nil
}
