package laser

import (
	"reflect"
	"testing"
)

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
	// The fingerprint hashes a version tag and the codec encoding of
	// every field in declaration order, so adding, removing, reordering
	// or retyping a field changes every fingerprint: laserd journals
	// pinned before the change no longer restore. Pin the default so
	// such a change is a deliberate edit here, not a side effect.
	if got, want := a.Fingerprint(), "a3ecadefea18c1340f9fe91b"; got != want {
		t.Errorf("DefaultConfig().Fingerprint() = %s, want %s (Config schema changed?)", got, want)
	}
}

// fingerprintNeutral names the Config leaves that must not move the
// fingerprint, each with the reason it cannot change a result.
var fingerprintNeutral = map[string]string{
	"IntraRunParallelism": "the intra-run engine is byte-identical to the serial one at any worker count",
	"Detector.SAV":        "Attach derives it from PEBS.SAV, which is fingerprinted",
}

// TestFingerprintCoversEveryField sets each leaf field of Config, one
// at a time, to a value other than its default and requires the
// fingerprint to move — unless the field is listed as result-neutral,
// in which case it must not. A new field is covered without an edit
// here; a field of a kind the test cannot perturb fails it.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := DefaultConfig().Fingerprint()
	seen := map[string]bool{}
	var walk func(typ reflect.Type, index []int, name string)
	walk = func(typ reflect.Type, index []int, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			path := name + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, path+".")
				continue
			}
			seen[path] = true
			c := DefaultConfig()
			v := reflect.ValueOf(&c).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 1)
			default:
				t.Errorf("%s: no perturbation for kind %s", path, v.Kind())
				continue
			}
			moved := c.Fingerprint() != base
			if _, neutral := fingerprintNeutral[path]; neutral == moved {
				t.Errorf("%s: fingerprint moved = %t, want %t", path, moved, !neutral)
			}
		}
	}
	walk(reflect.TypeFor[Config](), nil, "")
	for path := range fingerprintNeutral {
		if !seen[path] {
			t.Errorf("neutral field %s is not a Config leaf", path)
		}
	}
}
