package experiments

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests share the process's run memo, as the figures of one
// laserbench run do: a simulation is a pure function of its key, so a
// clean outcome one test computed serves every later test that reads
// the key. A test that injects faults or counts simulations from zero
// runs on an isolated memo instead.

// isolateMemo gives the rest of the test a fresh run memo and restores
// the shared one when the test ends.
func isolateMemo(t *testing.T) {
	shared := runMemo
	runMemo = newMemo()
	t.Cleanup(func() { runMemo = shared })
}

type memoPayload struct {
	Name   string
	Cycles uint64
}

func memoKey(seed int64) Key {
	return Key{
		Tool: "laser", Workload: "histogram'", Scale: 0.3, Variant: "native",
		SAV: 19, Seed: seed, Extra: "repair=true", Config: "cfg123",
	}
}

func memoValue() *memoPayload { return &memoPayload{Name: "histogram'", Cycles: 1_767_308} }

func TestMemoryHitMiss(t *testing.T) {
	m := newMemo()
	computes := 0
	get := func() (*memoPayload, bool) {
		v, computed, err := memoize(m, memoKey(1), func() (*memoPayload, error) {
			computes++
			return memoValue(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, computed
	}
	a, first := get()
	b, second := get()
	if computes != 1 || !first || second {
		t.Errorf("computes = %d, computed %v then %v; want 1, true then false", computes, first, second)
	}
	if a != b {
		t.Error("second call did not return the memoized pointer")
	}

	// A different key misses.
	if _, computed, err := memoize(m, memoKey(2), func() (*memoPayload, error) {
		computes++
		return memoValue(), nil
	}); err != nil || !computed {
		t.Fatalf("distinct key: computed %v, err %v", computed, err)
	}
	if computes != 2 {
		t.Errorf("distinct key served from the memo: computes = %d", computes)
	}
}

// A failing compute's error is memoized like a value: a deterministic
// simulation fails the same way every time, so later calls read the
// failure instead of computing again.
func TestErrorsMemoized(t *testing.T) {
	m := newMemo()
	boom := errors.New("boom")
	computes := 0
	for i := 0; i < 3; i++ {
		_, computed, err := memoize(m, memoKey(7), func() (*memoPayload, error) {
			computes++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
		if computed != (i == 0) {
			t.Errorf("call %d: computed = %v", i, computed)
		}
	}
	if computes != 1 || m.computeCount() != 1 {
		t.Errorf("failing compute ran %d times (memo counts %d), want 1", computes, m.computeCount())
	}
}

// A panicking compute becomes its flight's error: the caller gets an
// error carrying the panic and its stack, not a re-raised panic, and
// later calls read the same error.
func TestPanickingComputeMemoized(t *testing.T) {
	m := newMemo()
	panics := 0
	var first error
	for i := 0; i < 2; i++ {
		_, _, err := memoize(m, memoKey(3), func() (*memoPayload, error) {
			panics++
			panic("injected")
		})
		var pe *panicError
		if !errors.As(err, &pe) || pe.val != "injected" || len(pe.stack) == 0 {
			t.Fatalf("call %d: err = %v, want the recovered panic", i, err)
		}
		if i == 0 {
			first = err
		} else if err != first {
			t.Errorf("second call got a new error %v", err)
		}
	}
	if panics != 1 {
		t.Errorf("panicking compute ran %d times, want 1", panics)
	}
}

// A compute that outlives the memo's deadline fails its flight with a
// timeout naming the key, and the timeout is memoized.
func TestFlightDeadline(t *testing.T) {
	m := newMemo()
	m.setDeadline(20 * time.Millisecond)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	for i := 0; i < 2; i++ {
		_, _, err := memoize(m, memoKey(5), func() (*memoPayload, error) {
			<-release
			return memoValue(), nil
		})
		if err == nil || !strings.Contains(err.Error(), "deadline exceeded (20ms)") ||
			!strings.Contains(err.Error(), memoKey(5).String()) {
			t.Fatalf("call %d: err = %v, want the key's deadline", i, err)
		}
	}
	if m.computeCount() != 1 {
		t.Errorf("timed-out key computed %d times, want 1", m.computeCount())
	}
}

func TestConcurrentWritersSingleflight(t *testing.T) {
	m := newMemo()
	var computes, computedCalls atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*memoPayload, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, computed, err := memoize(m, memoKey(1), func() (*memoPayload, error) {
				computes.Add(1)
				return memoValue(), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if computed {
				computedCalls.Add(1)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if computes.Load() != 1 || computedCalls.Load() != 1 {
		t.Errorf("concurrent calls computed %d times (%d reported it), want 1", computes.Load(), computedCalls.Load())
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different value", g)
		}
	}
}

// Equal keys share one result; a key differing in any field is its own.
func TestKeyIdentity(t *testing.T) {
	m := newMemo()
	run := func(k Key) bool {
		_, computed, err := memoize(m, k, func() (*memoPayload, error) { return memoValue(), nil })
		if err != nil {
			t.Fatal(err)
		}
		return computed
	}
	a := memoKey(1)
	run(a)
	if run(memoKey(1)) {
		t.Error("an equal key computed again")
	}
	b := a
	b.Seed = 2
	c := a
	c.Extra = "repair=false"
	for _, k := range []Key{b, c} {
		if !run(k) {
			t.Errorf("key %s shared the result of %s", k, a)
		}
	}
	if a.String() == b.String() || a.String() == c.String() {
		t.Error("distinct keys render the same text")
	}
}
