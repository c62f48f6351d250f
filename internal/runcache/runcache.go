// Package runcache is a persistent, content-addressed store for
// deterministic simulation results. Every run of the evaluation harness
// is a pure function of its parameters — workload, scale, variant,
// tool, sample-after value, seed, configuration fingerprint and code
// version — so its results (machine statistics, coherence counts,
// HITM-by-PC tables, detection reports) can be cached under a hash of
// those parameters and reused by later evaluations, across processes:
// an incremental re-run only simulates cache misses.
//
// The store is two layers. The in-memory layer gives singleflight
// memoization within a process (concurrent requests for one key run the
// computation once). The disk layer, enabled by opening the store with
// a directory, persists entries as checksummed files sharded over
// 256 subdirectories, written atomically (temp file + rename) so
// concurrent writers — processes sharing one cache directory — can
// never expose a torn entry; corrupt or truncated files are
// detected by checksum, removed, and transparently recomputed.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Key identifies one deterministic simulation. Every field participates
// in the content address; execution-engine knobs that cannot change
// simulated results (worker counts, intra-run parallelism) must NOT be
// encoded into any field, so entries are shared across engine
// configurations.
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
	// Version is the code version that produced the entry (see
	// CodeVersion); simulation semantics may change between versions.
	Version string
}

// canonical renders the key as the stable text that is hashed and also
// stored in each entry's header (collision and diagnostics safety).
func (k Key) canonical() string {
	return fmt.Sprintf("tool=%s workload=%q scale=%g variant=%s sav=%d seed=%d extra=%q config=%s version=%s",
		k.Tool, k.Workload, k.Scale, k.Variant, k.SAV, k.Seed, k.Extra, k.Config, k.Version)
}

// ID returns the key's content address: the hex SHA-256 of its
// canonical form.
func (k Key) ID() string {
	sum := sha256.Sum256([]byte(k.canonical()))
	return hex.EncodeToString(sum[:])
}

// Stats counts store activity since creation.
type Stats struct {
	// Computes is the number of simulations actually executed (cache
	// misses on both layers).
	Computes int64
	// DiskHits served a key by decoding a persisted entry.
	DiskHits int64
	// MemHits served a key from the in-process layer.
	MemHits int64
	// Corrupt counts persisted entries that failed validation and were
	// discarded (then recomputed).
	Corrupt int64
	// WriteErrs counts failed persistence attempts (the result is still
	// returned; the cache is best-effort on the write side).
	WriteErrs int64
}

// Store is the two-layer cache. The zero value is not usable; construct
// with Open or NewMemory.
type Store struct {
	dir string // "" = memory-only
	// tempMaxAge is how old a crashed writer's leftover temp file must be
	// before GC reaps it (see WithTempMaxAge).
	tempMaxAge time.Duration

	mu  sync.Mutex
	mem map[string]*entry

	computes, diskHits, memHits, corrupt, writeErrs atomic.Int64
}

// Option configures a Store at Open.
type Option func(*Store)

// WithTempMaxAge sets how old a stale temp file (a crashed writer's
// leftover staging file) must be before a GC pass reaps it. The default
// is one hour — comfortably longer than any live rename window — but
// short-lived CI directories and the chaos tests shrink it so reaping
// is exercised without clock games. Non-positive values keep the
// default.
func WithTempMaxAge(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.tempMaxAge = d
		}
	}
}

// defaultTempMaxAge is the stale-temp reaping threshold when
// WithTempMaxAge is not given.
const defaultTempMaxAge = time.Hour

type entry struct {
	once sync.Once
	val  any
	err  error
	// outcome records how this process first served the key. It is
	// written once inside once.Do and guarded by the store mutex: Lookup
	// may race the first Do (the documented in-flight case) and must not
	// tear a read.
	outcome Outcome
}

// Outcome describes how a store first served a key in this process.
type Outcome uint8

// Outcomes of the first Do for a key.
const (
	// None: the key has not been requested.
	None Outcome = iota
	// Computed: the simulation actually ran (a miss on both layers).
	Computed
	// DiskHit: the persisted entry was decoded.
	DiskHit
)

func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case DiskHit:
		return "disk-hit"
	default:
		return "none"
	}
}

// NewMemory returns a store with no disk layer: pure in-process
// singleflight memoization (the replacement for the harness's historical
// native-baseline sync.Map).
func NewMemory() *Store {
	return &Store{mem: make(map[string]*entry), tempMaxAge: defaultTempMaxAge}
}

// Open returns a store persisting under dir, creating it if needed. An
// empty dir yields a memory-only store.
func Open(dir string, opts ...Option) (*Store, error) {
	s := NewMemory()
	for _, opt := range opts {
		opt(s)
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	s.dir = dir
	return s, nil
}

// Dir returns the persistence directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Computes:  s.computes.Load(),
		DiskHits:  s.diskHits.Load(),
		MemHits:   s.memHits.Load(),
		Corrupt:   s.corrupt.Load(),
		WriteErrs: s.writeErrs.Load(),
	}
}

// Do returns the cached result for key, computing and caching it on
// miss. Concurrent calls for one key run compute once and share the
// result; callers must treat the returned value as read-only, exactly
// like the memoized native baselines always were.
//
// Failures are not memoized: every caller waiting on a failing flight
// shares its error (or, for the computing caller, its re-raised panic),
// but the entry is then dropped, so a later Do for the same key
// re-attempts the computation. That is what lets the executor's bounded
// retry absorb transient faults — a panic or error injected into one
// attempt does not poison the key for the next. Errors are never
// persisted to disk.
func Do[T any](s *Store, key Key, compute func() (T, error)) (T, error) {
	var zero T
	id := key.ID()
	s.mu.Lock()
	e := s.mem[id]
	hit := e != nil
	if !hit {
		e = &entry{}
		s.mem[id] = e
	}
	s.mu.Unlock()

	setServed := func(outcome Outcome) {
		s.mu.Lock()
		e.outcome = outcome
		s.mu.Unlock()
	}
	computed := false
	var panicked any
	e.once.Do(func() {
		computed = true
		if s.loadDisk(id, key, &zero) {
			e.val = zero
			setServed(DiskHit)
			return
		}
		val, err := func() (v T, err error) {
			// A panicking simulation must not poison the entry (sync.Once
			// counts a panicking f as done, which would leave waiters a
			// nil value and no error): record it as the flight's error for
			// waiters and re-raise it to the computing caller below.
			defer func() {
				if r := recover(); r != nil {
					panicked = r
					err = fmt.Errorf("runcache: compute for %s panicked: %v", id[:12], r)
				}
			}()
			return compute()
		}()
		s.computes.Add(1)
		e.val, e.err = val, err
		setServed(Computed)
		if err == nil {
			s.saveDisk(id, key, val)
		}
	})
	if !computed {
		s.memHits.Add(1)
	}
	if e.err != nil {
		// Drop the failed flight so the next Do re-attempts; waiters
		// already holding e still read their shared error.
		s.mu.Lock()
		if s.mem[id] == e {
			delete(s.mem, id)
		}
		s.mu.Unlock()
		if panicked != nil {
			panic(panicked)
		}
		var z T
		return z, e.err
	}
	v, ok := e.val.(T)
	if !ok {
		var z T
		return z, fmt.Errorf("runcache: entry %s holds %T, caller wants %T (key collision across tools?)", id[:12], e.val, z)
	}
	return v, nil
}

// Lookup reports how this process first served key — simulated
// (Computed) or decoded from the disk layer (DiskHit). ok is false while
// the key has not been requested (or its first request is still in
// flight). The executor's per-unit hit/miss accounting reads it.
func (s *Store) Lookup(key Key) (outcome Outcome, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.mem[key.ID()]
	if e == nil || e.outcome == None {
		return None, false
	}
	return e.outcome, true
}

// Entry file layout (version 3; entries of older versions fail the
// magic check, count as corrupt and are recomputed):
//
//	laser-runcache v3\n
//	<canonical key>\n
//	<hex sha256 of payload>\n
//	<gob payload>
//
// A persisted entry's mtime doubles as its last-access time: every disk
// hit re-touches the file, so Store.GC can age out entries that no
// evaluation has read in a long time without a separate index.
const fileMagic = "laser-runcache v3"

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id[:2], id+".lrc")
}

// loadDisk decodes the persisted entry for id into dst (a *T). A
// missing file is a plain miss; anything malformed — bad magic
// (including older versions' entries), wrong key, checksum mismatch,
// truncation, undecodable payload — counts as corrupt, removes the
// file, and reports a miss so the entry is recomputed. A successful hit re-touches the file's mtime,
// maintaining the last-access time GC evicts by.
func (s *Store) loadDisk(id string, key Key, dst any) bool {
	if s.dir == "" {
		return false
	}
	path := s.path(id)
	data, err := os.ReadFile(path)
	if err != nil {
		// A read failure (missing, permissions, transient I/O) is just a
		// miss: only content that fails validation below is treated as
		// corrupt and removed — a healthy entry another process paid to
		// compute must never be deleted over a transient error.
		return false
	}
	if faultinject.Error(faultinject.PointCacheReadErr, key.canonical(), 1) != nil {
		// Injected I/O error: same contract as the real one above — a
		// plain miss, recomputed, never treated as corruption.
		return false
	}
	// Injected mid-read truncation lands on the validation path below
	// exactly like a real torn entry: checksum mismatch, drop, recompute.
	data = faultinject.Corrupt(faultinject.PointCacheReadCorrupt, key.canonical(), data)
	rest, ok := cutHeaderLine(data, fileMagic)
	if !ok {
		s.dropCorrupt(path)
		return false
	}
	rest, ok = cutHeaderLine(rest, key.canonical())
	if !ok {
		s.dropCorrupt(path)
		return false
	}
	var sumHex string
	sumHex, rest, ok = splitLine(rest)
	if !ok {
		s.dropCorrupt(path)
		return false
	}
	sum := sha256.Sum256(rest)
	if hex.EncodeToString(sum[:]) != sumHex {
		s.dropCorrupt(path)
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(dst); err != nil {
		s.dropCorrupt(path)
		return false
	}
	s.diskHits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort last-access for GC
	return true
}

func (s *Store) dropCorrupt(path string) {
	s.corrupt.Add(1)
	os.Remove(path)
}

// saveDisk persists val for id atomically: the entry is staged in a
// temp file in the destination directory and renamed into place, so
// readers (and concurrent writers in other processes) only ever see
// complete entries.
func (s *Store) saveDisk(id string, key Key, val any) {
	if s.dir == "" {
		return
	}
	if faultinject.Error(faultinject.PointCacheWriteErr, key.canonical(), 1) != nil {
		// Injected write failure: the cache is best-effort on the write
		// side, so the result is still served from memory; only the
		// persistence (and the counter) records the loss.
		s.writeErrs.Add(1)
		return
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(val); err != nil {
		s.writeErrs.Add(1)
		return
	}
	sum := sha256.Sum256(payload.Bytes())
	shardDir := filepath.Join(s.dir, id[:2])
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		s.writeErrs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(shardDir, id+".tmp-*")
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp's 0600 would make entries unreadable to other users of
	// a shared cache directory.
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = fmt.Fprintf(tmp, "%s\n%s\n%s\n", fileMagic, key.canonical(), hex.EncodeToString(sum[:]))
	}
	if err == nil {
		_, err = tmp.Write(payload.Bytes())
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(id))
	}
	if err != nil {
		s.writeErrs.Add(1)
	}
}

// cutHeaderLine strips one expected header line (plus newline), or
// reports failure.
func cutHeaderLine(data []byte, want string) ([]byte, bool) {
	line, rest, ok := splitLine(data)
	if !ok || line != want {
		return nil, false
	}
	return rest, true
}

// splitLine cuts data at the first newline.
func splitLine(data []byte) (line string, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return "", nil, false
	}
	return string(data[:i]), data[i+1:], true
}
