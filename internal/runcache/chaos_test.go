package runcache

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// corruptionModes are the ways a persisted entry can rot on disk; the
// chaos race below exercises recompute under every one of them while a
// GC pass runs concurrently.
var corruptionModes = map[string]func(data []byte) []byte{
	"flipped-payload-byte": func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(out)-1] ^= 0xff
		return out
	},
	"truncated": func(data []byte) []byte { return data[:len(data)/2] },
	"bad-magic": func(data []byte) []byte { return append([]byte("x"), data...) },
	"empty":     func([]byte) []byte { return nil },
}

// Corrupt-entry recompute racing a concurrent GC pass: N goroutines Do
// keys whose persisted entries were corrupted (each in a different
// mode) while another goroutine runs GC in a loop. Every Do must heal
// its key with a correct recompute; GC must neither crash nor evict an
// entry a recompute just rewrote in a way that loses results. Run under
// -race this is the satellite's corruption-vs-GC interleaving pin.
func TestCorruptRecomputeRacesGC(t *testing.T) {
	dir := t.TempDir()
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// One key per corruption mode plus a healthy control, persisted then
	// rotted on disk.
	type testCase struct {
		name string
		key  Key
	}
	var cases []testCase
	i := 0
	for name, corrupt := range corruptionModes {
		key := testKey(int64(100 + i))
		i++
		want := testPayload()
		if _, err := Do(warm, key, func() (*payload, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		path := warm.path(key.ID())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{name, key})
	}
	healthy := testKey(999)
	if _, err := Do(warm, healthy, func() (*payload, error) { return testPayload(), nil }); err != nil {
		t.Fatal(err)
	}

	// Fresh store over the rotted directory; GC hammers it while every
	// corrupted key recomputes concurrently.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(time.Nanosecond); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for _, tc := range cases {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func(tc testCase) {
				defer wg.Done()
				got, err := Do(s, tc.key, func() (*payload, error) { return testPayload(), nil })
				if err != nil {
					t.Errorf("%s: Do under GC: %v", tc.name, err)
					return
				}
				if got.Cycles != testPayload().Cycles {
					t.Errorf("%s: recompute under GC returned %+v", tc.name, got)
				}
			}(tc)
		}
	}
	wg.Wait()
	close(stop)
	gcWG.Wait()

	// The aggressive GC (age 1ns, 1 byte budget) may have evicted the
	// un-served healthy entry, but every key this store served must
	// still resolve — eviction never loses an in-use result.
	for _, tc := range cases {
		if _, err := Do(s, tc.key, func() (*payload, error) { return testPayload(), nil }); err != nil {
			t.Errorf("%s: key unusable after GC race: %v", tc.name, err)
		}
	}
}

// Injected mid-read truncation (the fault plan's cache.read.corrupt
// point) must surface through the exact same corrupt-detect-recompute
// path as on-disk rot — including while a GC pass runs concurrently.
func TestInjectedTruncationRecomputesUnderGC(t *testing.T) {
	plan, err := faultinject.Parse("seed=3;cache.read.corrupt:p=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	t.Cleanup(func() { faultinject.Enable(nil) })

	dir := t.TempDir()
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(nil) // persist cleanly first
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = testKey(int64(200 + i))
		if _, err := Do(warm, keys[i], func() (*payload, error) { return testPayload(), nil }); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(plan)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(time.Hour); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			got, err := Do(s, k, func() (*payload, error) { return testPayload(), nil })
			if err != nil || got.Cycles != testPayload().Cycles {
				t.Errorf("injected truncation not recomputed: %+v, %v", got, err)
			}
		}(k)
	}
	wg.Wait()
	close(stop)
	gcWG.Wait()

	st := s.Stats()
	if st.Corrupt != int64(len(keys)) || st.Computes != int64(len(keys)) {
		t.Errorf("stats = %+v, want %d corrupt and %d computes (every read truncated, every key recomputed)",
			st, len(keys), len(keys))
	}
}

// The stale-temp reaping threshold is a Store option now: a short
// WithTempMaxAge lets tests (and short-lived CI dirs) watch reaping
// happen without rewriting file clocks.
func TestGCTempReapingThresholdOption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithTempMaxAge(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Do(s, testKey(1), func() (*payload, error) { return testPayload(), nil }); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's leftovers: one fresh temp, one past the
	// threshold.
	shard := filepath.Dir(s.path(testKey(1).ID()))
	stale := filepath.Join(shard, "deadbeef.tmp-1")
	freshTemp := filepath.Join(shard, "deadbeef.tmp-2")
	for _, p := range []string{stale, freshTemp} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(40 * time.Millisecond)
	if err := os.WriteFile(freshTemp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp survived GC (err %v)", err)
	}
	if _, err := os.Stat(freshTemp); err != nil {
		t.Errorf("fresh temp reaped ahead of the threshold: %v", err)
	}

	// The default threshold (no option) must not reap young temps.
	d2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d2.tempMaxAge != defaultTempMaxAge {
		t.Errorf("default temp age = %v, want %v", d2.tempMaxAge, defaultTempMaxAge)
	}
}
