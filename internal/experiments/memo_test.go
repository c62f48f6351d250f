package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// resetRunMemo drops every memoized run, so the next capture simulates
// again.
func resetRunMemo() { runMemo = newMemo() }

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

func TestErrorsNotMemoized(t *testing.T) {
	m := newMemo()
	boom := errors.New("boom")
	computes := 0
	for i := 0; i < 2; i++ {
		if _, _, err := memoize(m, memoKey(7), func() (*memoPayload, error) {
			computes++
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	// A failed flight is dropped, not memoized: the second call must
	// re-attempt (the executor's retry loop depends on it), and a
	// successful retry heals the key.
	if computes != 2 {
		t.Errorf("failing compute ran %d times, want 2 (failures are not memoized)", computes)
	}
	if v, computed, err := memoize(m, memoKey(7), func() (*memoPayload, error) {
		return memoValue(), nil
	}); err != nil || !computed || v.Cycles != memoValue().Cycles {
		t.Fatalf("retry after failures did not recompute: v=%+v computed=%v err=%v", v, computed, err)
	}
	if _, computed, _ := memoize(m, memoKey(7), func() (*memoPayload, error) {
		return nil, boom
	}); computed {
		t.Error("healed key computed again")
	}
}

// A panicking compute re-raises to its caller but neither poisons the
// key (retry recomputes) nor tears concurrent waiters (they share an
// error instead of a zero value).
func TestPanickingComputeNotMemoized(t *testing.T) {
	m := newMemo()
	panics := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed by memoize")
			}
		}()
		memoize(m, memoKey(3), func() (*memoPayload, error) {
			panics++
			panic("injected")
		})
	}()
	if v, _, err := memoize(m, memoKey(3), func() (*memoPayload, error) {
		return memoValue(), nil
	}); err != nil || v.Cycles != memoValue().Cycles {
		t.Fatalf("retry after panic: v=%+v err=%v", v, err)
	}
	if panics != 1 {
		t.Errorf("panicking compute ran %d times, want 1", panics)
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
