package runcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/mem"
)

// The payload types FuzzRuncacheEntry reads entries as, selected by the
// input's first argument: the test's nested payload and the machine
// statistics every simulated run persists.
const (
	fuzzPayload uint8 = iota
	fuzzStats
	fuzzKinds
)

func statsPayload() *machine.Stats {
	return &machine.Stats{
		Cycles: 1_767_308, CoreCycles: []uint64{1_767_308, 1_700_001, 0, 12},
		Instructions: 4_200_000, MemAccesses: 900_000, HITMLoads: 331, HITMStores: 60,
		HITMByPC:  map[mem.Addr]uint64{0x40010: 331, 0x40018: 60},
		SSBStores: 7, Commits: 3,
	}
}

// entrySeeds returns real persisted entries of both payload types, the
// shapes FuzzRuncacheEntry mutates.
func entrySeeds(tb testing.TB) map[uint8][]byte {
	tb.Helper()
	seeds := make(map[uint8][]byte)
	write := func(kind uint8, put func(s *Store) error) {
		dir := tb.TempDir()
		s, err := Open(dir)
		if err != nil {
			tb.Fatal(err)
		}
		if err := put(s); err != nil {
			tb.Fatal(err)
		}
		data, err := os.ReadFile(s.path(testKey(1).ID()))
		if err != nil {
			tb.Fatal(err)
		}
		seeds[kind] = data
	}
	write(fuzzPayload, func(s *Store) error {
		_, err := Do(s, testKey(1), func() (*payload, error) { return testPayload(), nil })
		return err
	})
	write(fuzzStats, func(s *Store) error {
		_, err := Do(s, testKey(1), func() (*machine.Stats, error) { return statsPayload(), nil })
		return err
	})
	return seeds
}

// FuzzRuncacheEntry: whatever bytes sit in an entry file, reading them
// through a Store never panics. An entry the store refuses counts as
// corrupt, is removed and reads as a miss; an entry it accepts
// re-encodes to exactly the payload bytes it was read from. The
// checked-in corpus under testdata/fuzz holds valid entries, a v3
// entry and damaged ones; the seeds added here are written by the
// current code.
func FuzzRuncacheEntry(f *testing.F) {
	for kind, data := range entrySeeds(f) {
		f.Add(kind, data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % fuzzKinds {
		case fuzzPayload:
			readEntry[*payload](t, data)
		case fuzzStats:
			readEntry[*machine.Stats](t, data)
		}
	})
}

var errRefused = errors.New("entry refused")

// readEntry plants data as the entry of testKey(1) and reads it as a T.
func readEntry[T any](t *testing.T, data []byte) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	path := s.path(key.ID())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A refused entry reaches compute, whose error is never persisted:
	// the file must then be gone, not rewritten.
	got, err := Do(s, key, func() (T, error) {
		var zero T
		return zero, errRefused
	})
	st := s.Stats()
	if errors.Is(err, errRefused) {
		if st.Corrupt != 1 || st.DiskHits != 0 {
			t.Fatalf("refused entry: stats = %+v, want corrupt=1 diskhits=0", st)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("refused entry left on disk (stat err %v)", serr)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.DiskHits != 1 || st.Corrupt != 0 || st.Computes != 0 {
		t.Fatalf("accepted entry: stats = %+v, want one disk hit", st)
	}
	header := fileMagic + "\n" + key.canonical() + "\n"
	if !bytes.HasPrefix(data, []byte(header)) {
		t.Fatalf("accepted an entry without the %q header", header)
	}
	_, payload, _ := splitLine(data[len(header):])
	again, err := codec.Append(nil, &got)
	if err != nil {
		t.Fatalf("re-encoding an accepted payload: %v", err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatalf("accepted %d payload bytes re-encode to %d different bytes", len(payload), len(again))
	}
}
