package laser

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/codec"
)

// fingerprintVersion tags the fingerprint's encoding. Change it when
// the encoding itself changes; a change to Config's fields changes
// every fingerprint on its own.
const fingerprintVersion = "laser-config v1\n"

// Fingerprint returns a short, stable content hash of every
// configuration field that can influence simulated results: a version
// tag followed by the codec encoding (internal/codec) of the Config,
// every field in declaration order. Two configurations with equal
// fingerprints produce byte-identical runs of the same workload image.
//
// Two fields are excluded, because neither can change a result:
//   - IntraRunParallelism: output is byte-identical at any worker
//     count, so a result computed under one engine configuration is
//     valid under every other.
//   - Detector.SAV: Attach derives it from PEBS.SAV, which is hashed.
//
// laserd journals pin a session's configuration with it, and the
// experiment harness uses it as the configuration component of its
// in-process run keys.
func (c Config) Fingerprint() string {
	c.IntraRunParallelism = 0
	c.Detector.SAV = 0
	b, err := codec.Append([]byte(fingerprintVersion), &c)
	if err != nil {
		panic("laser: Config holds a field the codec cannot encode: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
