package laser

import "testing"

func TestConfigFingerprint(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal configs fingerprint differently")
	}
	b.PEBS.Seed = 99
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("PEBS seed change not reflected in fingerprint")
	}
	c := DefaultConfig()
	c.PollInterval = 600_000
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("poll-interval change not reflected in fingerprint")
	}
	// Intra-run parallelism is byte-identity-preserving and must be
	// excluded: a result computed serially serves parallel runs.
	d := DefaultConfig()
	d.IntraRunParallelism = 4
	if a.Fingerprint() != d.Fingerprint() {
		t.Error("intra-run parallelism leaked into the fingerprint")
	}
	// The fingerprint hashes the Config's %+v rendering, so adding,
	// removing or renaming a field changes every fingerprint: laserd
	// journals written before the change are quarantined. Pin the default so such a change is a
	// deliberate edit here, not a side effect.
	if got, want := a.Fingerprint(), "2020fe4840e587f1d6eae0c7"; got != want {
		t.Errorf("DefaultConfig().Fingerprint() = %s, want %s (Config schema changed?)", got, want)
	}
}
