package runcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type payload struct {
	Name   string
	Cycles uint64
	ByPC   map[uint64]uint64
	Nested []sub
}

type sub struct {
	Rate float64
	Kind int
}

func testKey(seed int64) Key {
	return Key{
		Tool: "laser", Workload: "histogram'", Scale: 0.3, Variant: "native",
		SAV: 19, Seed: seed, Extra: "repair=true", Config: "cfg123", Version: "v-test",
	}
}

func testPayload() *payload {
	return &payload{
		Name:   "histogram'",
		Cycles: 1_767_308,
		ByPC:   map[uint64]uint64{0x40010: 331, 0x40018: 60},
		Nested: []sub{{Rate: 19773979.5, Kind: 2}, {Rate: 1.25, Kind: 1}},
	}
}

func TestMemoryHitMiss(t *testing.T) {
	s := NewMemory()
	computes := 0
	get := func() *payload {
		v, err := Do(s, testKey(1), func() (*payload, error) {
			computes++
			return testPayload(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := get(), get()
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
	if a != b {
		t.Error("second call did not return the memoized pointer")
	}
	st := s.Stats()
	if st.Computes != 1 || st.MemHits != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}

	// A different key misses.
	if _, err := Do(s, testKey(2), func() (*payload, error) {
		computes++
		return testPayload(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Errorf("distinct key served from cache: computes = %d", computes)
	}
}

func TestErrorsNotMemoizedNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	computes := 0
	for i := 0; i < 2; i++ {
		if _, err := Do(s, testKey(7), func() (*payload, error) {
			computes++
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	// A failed flight is dropped, not memoized: the second Do must
	// re-attempt (the executor's retry loop depends on it), and a
	// successful retry heals the key in the same store.
	if computes != 2 {
		t.Errorf("failing compute ran %d times, want 2 (failures are not memoized)", computes)
	}
	if v, err := Do(s, testKey(7), func() (*payload, error) {
		return testPayload(), nil
	}); err != nil || v.Cycles != testPayload().Cycles {
		t.Fatalf("retry after failures did not recompute: v=%+v err=%v", v, err)
	}
	// A fresh store over the same dir must not see a persisted failure.
	s2, _ := Open(dir)
	if _, err := Do(s2, testKey(7), func() (*payload, error) {
		t.Error("healed entry was not persisted")
		return testPayload(), nil
	}); err != nil {
		t.Fatalf("error was persisted: %v", err)
	}
}

// A panicking compute re-raises to its caller but neither poisons the
// key (retry recomputes) nor tears concurrent waiters (they share an
// error instead of a zero value).
func TestPanickingComputeNotMemoized(t *testing.T) {
	s := NewMemory()
	panics := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was swallowed by Do")
			}
		}()
		Do(s, testKey(3), func() (*payload, error) {
			panics++
			panic("injected")
		})
	}()
	if v, err := Do(s, testKey(3), func() (*payload, error) {
		return testPayload(), nil
	}); err != nil || v.Cycles != testPayload().Cycles {
		t.Fatalf("retry after panic: v=%+v err=%v", v, err)
	}
	if panics != 1 {
		t.Errorf("panicking compute ran %d times, want 1", panics)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testPayload()
	if _, err := Do(s1, testKey(1), func() (*payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A second store (another process) hits disk without computing.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Do(s2, testKey(1), func() (*payload, error) {
		t.Fatal("computed despite persisted entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Cycles != want.Cycles ||
		len(got.ByPC) != len(want.ByPC) || got.ByPC[0x40010] != 331 ||
		len(got.Nested) != 2 || got.Nested[0] != want.Nested[0] {
		t.Errorf("decoded payload differs: %+v vs %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Computes != 0 {
		t.Errorf("stats = %+v, want 1 disk hit and 0 computes", st)
	}
}

// entryFile locates the single persisted entry under dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".lrc" {
			found = path
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file found under %s (err %v)", dir, err)
	}
	return found
}

func TestCorruptEntryDetectedAndRecomputed(t *testing.T) {
	for name, corrupt := range map[string]func(data []byte) []byte{
		"flipped-payload-byte": func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)-1] ^= 0xff
			return out
		},
		"truncated": func(data []byte) []byte { return data[:len(data)/2] },
		"bad-magic": func(data []byte) []byte { return append([]byte("x"), data...) },
		"empty":     func([]byte) []byte { return nil },
		"v3-entry": func(data []byte) []byte {
			// An entry of the previous layout (its payload was gob) under
			// an intact key line and checksum: the magic alone refuses it.
			_, rest, _ := splitLine(data)
			return append([]byte("laser-runcache v3\n"), rest...)
		},
		"wrong-key": func(data []byte) []byte {
			// Valid layout, but the header names a different key: the
			// content address collided with someone else's entry.
			_, rest, _ := splitLine(data)
			_, rest, _ = splitLine(rest)
			out := []byte(fileMagic + "\n" + testKey(99).canonical() + "\n")
			return append(out, rest...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Do(s, testKey(1), func() (*payload, error) { return testPayload(), nil }); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Do(fresh, testKey(1), func() (*payload, error) { return testPayload(), nil })
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != testPayload().Cycles {
				t.Errorf("recomputed payload differs: %+v", got)
			}
			st := fresh.Stats()
			if st.Corrupt != 1 || st.Computes != 1 || st.DiskHits != 0 {
				t.Errorf("stats = %+v, want corrupt=1 computes=1 diskhits=0", st)
			}
			// The corrupt file was dropped and replaced by the recompute:
			// a third store gets a clean disk hit.
			again, _ := Open(dir)
			if _, err := Do(again, testKey(1), func() (*payload, error) {
				t.Error("recomputed entry was not re-persisted")
				return testPayload(), nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentWritersSingleflight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*payload, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := Do(s, testKey(1), func() (*payload, error) {
				computes.Add(1)
				return testPayload(), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("concurrent Do computed %d times, want 1", computes.Load())
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different value", g)
		}
	}
}

// Two stores sharing a directory, racing distinct and overlapping keys:
// everything must come out intact (atomic writes, last-wins renames).
func TestConcurrentStoresSharedDir(t *testing.T) {
	dir := t.TempDir()
	const keys = 12
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				v, err := Do(s, testKey(k), func() (*payload, error) {
					p := testPayload()
					p.Cycles = uint64(k) * 1000
					return p, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.Cycles != uint64(k)*1000 {
					t.Errorf("key %d returned cycles %d", k, v.Cycles)
				}
			}
		}(s)
	}
	wg.Wait()
	// Everything persisted must validate from a cold store.
	cold, _ := Open(dir)
	for k := int64(0); k < keys; k++ {
		v, err := Do(cold, testKey(k), func() (*payload, error) {
			return nil, fmt.Errorf("key %d missing from shared dir", k)
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.Cycles != uint64(k)*1000 {
			t.Errorf("key %d: cycles %d", k, v.Cycles)
		}
	}
	if st := cold.Stats(); st.Corrupt != 0 || st.Computes != 0 {
		t.Errorf("cold stats = %+v, want all disk hits", st)
	}
}

func TestKeyIdentity(t *testing.T) {
	a, b := testKey(1), testKey(1)
	if a.ID() != b.ID() {
		t.Error("equal keys hash differently")
	}
	b.Seed = 2
	if a.ID() == b.ID() {
		t.Error("different seeds share an ID")
	}
	c := a
	c.Extra = "repair=false"
	if a.ID() == c.ID() {
		t.Error("different extras share an ID")
	}
}

func TestCodeVersionOverride(t *testing.T) {
	t.Setenv("LASER_RUNCACHE_VERSION", "abc123")
	// CodeVersion caches after first use; call resolveVersion directly
	// for the override behaviour.
	if v := resolveVersion(); v != schemaVersion+"-abc123" {
		t.Errorf("resolveVersion() = %q", v)
	}
	t.Setenv("LASER_RUNCACHE_VERSION", "")
	if v := resolveVersion(); v == "" {
		t.Error("empty fallback version")
	}
}

// Lookup: per-key outcome, computed in one store and a disk hit in a
// fresh store over the same directory.
func TestLookupOutcome(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s1.Lookup(testKey(1)); ok {
		t.Error("unrequested key reports an outcome")
	}
	if _, err := Do(s1, testKey(1), func() (*payload, error) { return testPayload(), nil }); err != nil {
		t.Fatal(err)
	}
	if oc, ok := s1.Lookup(testKey(1)); !ok || oc != Computed {
		t.Fatalf("computed key: outcome %v ok=%v", oc, ok)
	}

	// A fresh store over the same dir serves the entry from disk.
	s2, _ := Open(dir)
	if _, err := Do(s2, testKey(1), func() (*payload, error) {
		t.Fatal("computed despite persisted entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if oc, ok := s2.Lookup(testKey(1)); !ok || oc != DiskHit {
		t.Fatalf("persisted key: outcome %v ok=%v", oc, ok)
	}
}

// backdate rewrites an entry file's times, simulating an old last
// access.
func backdate(t *testing.T, path string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestGCAgeRule(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if _, err := Do(s1, testKey(k), func() (*payload, error) { return testPayload(), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Age out key 2 only; key 1 stays fresh.
	backdate(t, s1.path(testKey(2).ID()), 48*time.Hour)

	gcer, _ := Open(dir) // a separate process doing maintenance
	st, err := gcer.GC(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 2 || st.Evicted != 1 || st.Pinned != 0 {
		t.Errorf("GC stats = %+v, want scanned=2 evicted=1", st)
	}
	cold, _ := Open(dir)
	if _, err := Do(cold, testKey(1), func() (*payload, error) {
		t.Error("fresh entry was evicted by the age rule")
		return testPayload(), nil
	}); err != nil {
		t.Fatal(err)
	}
	recomputed := false
	if _, err := Do(cold, testKey(2), func() (*payload, error) {
		recomputed = true
		return testPayload(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("aged entry survived GC")
	}
}

// A disk hit refreshes the entry's last access, so entries a long-lived
// evaluation keeps reading stay young however old their compute is.
func TestGCDiskHitRefreshesLastAccess(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	if _, err := Do(s1, testKey(1), func() (*payload, error) { return testPayload(), nil }); err != nil {
		t.Fatal(err)
	}
	backdate(t, s1.path(testKey(1).ID()), 48*time.Hour)
	s2, _ := Open(dir)
	if _, err := Do(s2, testKey(1), func() (*payload, error) {
		t.Fatal("computed despite persisted entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	gcer, _ := Open(dir)
	st, err := gcer.GC(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 0 {
		t.Errorf("GC evicted a just-read entry: %+v", st)
	}
}

// Entries the running process has already served are never evicted, no
// matter how stale: a mid-run GC cannot pull results out from under the
// evaluation that is using them.
func TestGCNeverEvictsInUseEntries(t *testing.T) {
	dir := t.TempDir()
	writer, _ := Open(dir)
	for k := int64(1); k <= 3; k++ {
		if _, err := Do(writer, testKey(k), func() (*payload, error) { return testPayload(), nil }); err != nil {
			t.Fatal(err)
		}
		backdate(t, writer.path(testKey(k).ID()), 48*time.Hour)
	}

	// The evaluation process: has served keys 1 and 2 (one computed
	// in an earlier run and disk-hit now, the distinction must not
	// matter), then GCs its own directory mid-run.
	eval, _ := Open(dir)
	for k := int64(1); k <= 2; k++ {
		if _, err := Do(eval, testKey(k), func() (*payload, error) { return testPayload(), nil }); err != nil {
			t.Fatal(err)
		}
		backdate(t, eval.path(testKey(k).ID()), 48*time.Hour)
	}
	st, err := eval.GC(time.Nanosecond) // the age rule maximally aggressive
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Errorf("GC evicted %d entries, want only the unused key 3 (%+v)", st.Evicted, st)
	}
	// The age rule wanted both in-use entries.
	if st.Pinned != 2 {
		t.Errorf("GC pinned %d, want exactly the 2 in-use entries (%+v)", st.Pinned, st)
	}
	for k := int64(1); k <= 2; k++ {
		if _, err := os.Stat(eval.path(testKey(k).ID())); err != nil {
			t.Errorf("in-use key %d was evicted: %v", k, err)
		}
	}
}

// GC on a memory-only store is a no-op, not an error.
func TestGCMemoryOnly(t *testing.T) {
	s := NewMemory()
	st, err := s.GC(time.Hour)
	if err != nil || st.Scanned != 0 || st.Evicted != 0 {
		t.Errorf("memory-only GC: %+v, %v", st, err)
	}
}
