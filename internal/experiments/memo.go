package experiments

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// The run memo. Every simulation the evaluation performs is a pure
// function of its Key, so within one process each is computed once and
// its outcome shared by every figure, seed and repetition that asks for
// it: concurrent requests for one key wait for a single computation.
// The memo is also where a simulation's failures are contained: each
// computation (a flight) runs under Run's deadline, a panic inside it
// becomes its error, and the error is remembered like a result — a
// deterministic simulation fails the same way every time, so a later
// request reads the failure instead of simulating again. Outcomes live
// only as long as the process; a later evaluation simulates everything
// again, from the code it was built from.

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
	// Variant distinguishes workload build variants (native/fixed, or
	// the characterization case).
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

// String renders the key as "<tool>/<workload>@<scale>" followed by
// its set fields: the label a failure reports and the site key the
// unit.* fault points match against (match=laser/dedup@ selects every
// dedup LASER run, match=char/FSRW/0 one characterization case).
func (k Key) String() string {
	var b strings.Builder
	b.WriteString(k.Tool + "/" + k.Workload)
	if k.Scale != 0 {
		fmt.Fprintf(&b, "@%g", k.Scale)
	}
	if k.Variant != "" {
		b.WriteString("/" + k.Variant)
	}
	if k.SAV != 0 {
		fmt.Fprintf(&b, "/sav%d", k.SAV)
	}
	fmt.Fprintf(&b, "/seed%d", k.Seed)
	if k.Extra != "" {
		b.WriteString("/" + k.Extra)
	}
	b.WriteString("/config=" + k.Config)
	return b.String()
}

// defaultDeadline bounds every flight Run starts: the slowest
// simulation of a paper-scale evaluation takes about 2 s on a 2-core
// host, so 30 s calls one stalled only with an order of magnitude of
// slack.
const defaultDeadline = 30 * time.Second

// memo is a single-flight store of simulation outcomes by Key.
type memo struct {
	mu      sync.Mutex
	flights map[Key]*flight
	// deadline bounds each flight started (0 = none).
	deadline time.Duration
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

func newMemo() *memo { return &memo{flights: make(map[Key]*flight)} }

// runMemo is the harness's memo; every runner goes through it.
var runMemo = newMemo()

// setDeadline bounds the flights m starts from now on (0 = no bound)
// and returns the previous bound.
func (m *memo) setDeadline(d time.Duration) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.deadline
	m.deadline = d
	return prev
}

// computeCount returns how many flights m has started: the
// simulations run, since a flight is never dropped.
func (m *memo) computeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flights)
}

// recall returns runMemo's outcome for key, computing it on a miss.
// Callers must treat the value as read-only: it is shared.
func recall[T any](key Key, compute func() (T, error)) (T, error) {
	v, _, err := memoize(runMemo, key, compute)
	return v, err
}

// memoize returns m's outcome for key, running compute in a flight on
// a miss; computed reports whether this call started it. Concurrent
// calls for one key share one flight, and a failed flight's error is
// memoized like a value.
func memoize[T any](m *memo, key Key, compute func() (T, error)) (v T, computed bool, err error) {
	m.mu.Lock()
	f := m.flights[key]
	if f == nil {
		f = &flight{done: make(chan struct{})}
		m.flights[key] = f
		computed = true
	}
	deadline := m.deadline
	m.mu.Unlock()

	if computed {
		f.val, f.err = fly(key, deadline, func() (any, error) { return compute() })
		close(f.done)
	} else {
		<-f.done
	}
	if f.err != nil {
		return v, computed, f.err
	}
	// Key.Tool fixes the result type, so this assertion fails only on a
	// programming error.
	return f.val.(T), computed, nil
}

// fly runs one flight's compute on its own goroutine, so a deadline
// (0 = none) can preempt it; a preempted compute keeps running until
// the simulation's own bounds (machine cycle caps) stop it, and the
// buffered channel lets it finish without a receiver. The unit.*
// fault points fire here, keyed by the key's label: a panic at the
// start, an injected error, or a stall that consumes the flight.
func fly(key Key, deadline time.Duration, compute func() (any, error)) (any, error) {
	type outcome struct {
		val any
		err error
	}
	done := make(chan outcome, 1)
	label := key.String()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: &panicError{site: label, val: r, stack: debug.Stack()}}
			}
		}()
		faultinject.Panic(faultinject.PointUnitPanic, label)
		if err := faultinject.Error(faultinject.PointUnitErr, label); err != nil {
			done <- outcome{err: err}
			return
		}
		if err := faultinject.Stall(faultinject.PointUnitStall, label); err != nil {
			done <- outcome{err: err}
			return
		}
		val, err := compute()
		done <- outcome{val, err}
	}()
	var expired <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-done:
		return o.val, o.err
	case <-expired:
		return nil, fmt.Errorf("%s: deadline exceeded (%s)", label, deadline)
	}
}

// panicError is a recovered panic: in a flight, a figure runner's pool
// task or a spec's Assemble.
type panicError struct {
	site  string
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.site, e.val)
}
