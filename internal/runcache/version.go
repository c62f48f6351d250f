package runcache

import (
	"os"
	"runtime/debug"
	"sync"
)

// schemaVersion is baked into CodeVersion so that changes to the entry
// payload shapes invalidate old caches even within one VCS revision.
const schemaVersion = "s1"

// CodeVersion identifies the simulator build for cache keying: results
// are only shared between processes running the same code. Resolution
// order:
//
//  1. LASER_RUNCACHE_VERSION, when set — it pins the version when
//     processes built differently must share one cache directory;
//  2. the VCS revision stamped into the binary (plus a "+dirty" marker
//     for modified trees), when available;
//  3. "dev" — local builds without VCS stamping (notably `go test`
//     binaries) share entries; point such runs at a fresh cache
//     directory, as the tests do.
func CodeVersion() string {
	versionOnce.Do(func() {
		version = resolveVersion()
	})
	return version
}

var (
	versionOnce sync.Once
	version     string
)

func resolveVersion() string {
	if v := os.Getenv("LASER_RUNCACHE_VERSION"); v != "" {
		return schemaVersion + "-" + v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return schemaVersion + "-" + rev + dirty
		}
	}
	return schemaVersion + "-dev"
}
