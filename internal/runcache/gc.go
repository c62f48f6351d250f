package runcache

import (
	"os"
	"path/filepath"
	"strings"
	"time"
)

// GCStats summarizes one GC pass over the disk layer.
type GCStats struct {
	// Scanned entries (files) and their total size before eviction.
	Scanned      int
	ScannedBytes int64
	// Evicted entries and bytes reclaimed.
	Evicted      int
	EvictedBytes int64
	// Remaining bytes after the pass.
	RemainingBytes int64
	// Pinned entries that the age rule matched but that were kept because
	// this process has already served them (mid-run safety).
	Pinned int
}

// GC prunes the disk layer of a long-lived cache directory: maxAge > 0
// evicts entries whose last access is older than maxAge. Last access is
// the entry file's mtime, which every disk hit re-touches, so entries an
// evaluation still reads stay young no matter when they were computed.
// Entries are keyed by code version, so the age rule is also what
// reclaims every dead revision's entries. A non-positive maxAge evicts
// nothing.
//
// Entries this process has already served (present in the in-memory
// layer) are never evicted: an evaluation sharing the store can GC
// mid-run without losing results it has touched. Stale temp files from
// crashed writers (older than the store's temp-age threshold — one hour
// unless Open was given WithTempMaxAge) are also removed; they count
// toward no entry statistic.
//
// Another process writing the same directory may race a GC pass; the
// atomic write protocol keeps every outcome safe (a concurrent writer
// either fully re-creates an evicted entry or loses the rename), but
// eviction decisions then reflect a snapshot.
func (s *Store) GC(maxAge time.Duration) (GCStats, error) {
	var st GCStats
	if s.dir == "" {
		return st, nil
	}
	// Entries already served in this process are load-bearing mid-run.
	pinned := make(map[string]bool)
	s.mu.Lock()
	for id := range s.mem {
		pinned[id] = true
	}
	s.mu.Unlock()

	now := time.Now()
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return st, err
	}
	for _, sd := range subdirs {
		if !sd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(s.dir, sd.Name(), f.Name())
			info, err := f.Info()
			if err != nil {
				continue
			}
			age := now.Sub(info.ModTime())
			if !strings.HasSuffix(f.Name(), ".lrc") {
				// A leftover temp file from a crashed writer; reap it once
				// it is old enough that no live rename can still want it.
				if strings.Contains(f.Name(), ".tmp-") && age > s.tempMaxAge {
					os.Remove(path)
				}
				continue
			}
			st.Scanned++
			st.ScannedBytes += info.Size()
			switch {
			case maxAge <= 0 || age <= maxAge:
			case pinned[strings.TrimSuffix(f.Name(), ".lrc")]:
				st.Pinned++
			case os.Remove(path) == nil:
				st.Evicted++
				st.EvictedBytes += info.Size()
			}
		}
	}
	st.RemainingBytes = st.ScannedBytes - st.EvictedBytes
	return st, nil
}
