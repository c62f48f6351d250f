package laser

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint returns a short, stable content hash over every
// configuration field that can influence simulated results: core count,
// PEBS sampling model, driver and detector parameters, repair settings,
// poll cadence and cycle/epoch budgets. Two configurations with equal
// fingerprints produce byte-identical runs of the same workload image.
//
// IntraRunParallelism is excluded: its output is byte-identical at any
// worker count, so a result computed under one engine configuration is
// valid under every other.
//
// laserd journals pin a session's configuration with it, and the
// experiment harness uses it as the configuration component of its
// in-process run keys.
func (c Config) Fingerprint() string {
	c.IntraRunParallelism = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:12])
}
