package laser

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// snapshotSeeds returns real session snapshot encodings at the points
// a snapshot is taken in practice: just attached, mid-run, after a
// repair hot-swap, and finished — plus a truncated one.
func snapshotSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	encode := func(s *Session) []byte {
		b, err := s.CaptureState().Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	s, err := Attach(trialFSImage(30_000), WithPollInterval(50_000), WithTrialBudget(150_000))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	seeds := map[string][]byte{"idle": encode(s)}
	if done, err := s.RunFor(100_000); err != nil || done {
		tb.Fatalf("RunFor: done=%t err=%v", done, err)
	}
	seeds["midrun"] = encode(s)
	for !s.repairApplied {
		done, err := s.Step()
		if err != nil || done {
			tb.Fatalf("no repair before the end: done=%t err=%v", done, err)
		}
	}
	seeds["repaired"] = encode(s)
	if _, err := s.Wait(); err != nil {
		tb.Fatal(err)
	}
	seeds["done"] = encode(s)
	seeds["truncated"] = seeds["midrun"][:len(seeds["midrun"])/2]
	return seeds
}

// FuzzDecodeSessionState: the snapshot decoder never panics, and every
// input it accepts re-encodes to the same bytes. The checked-in corpus
// under testdata/fuzz holds real encodings; the seeds added here are
// taken from live sessions, so they track the current schema.
func FuzzDecodeSessionState(f *testing.F) {
	for _, b := range snapshotSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeSessionState(b)
		if err != nil {
			return
		}
		again, err := st.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(again))
		}
	})
}

// BenchmarkSessionStateCodec measures what a checkpoint or a trial
// fork pays for one snapshot: capture plus encode, and decode, on the
// false-sharing histogram' image just attached and mid-run.
func BenchmarkSessionStateCodec(b *testing.B) {
	for _, point := range []struct {
		name   string
		cycles uint64
	}{{"idle", 0}, {"midrun", 600_000}} {
		w, _ := workload.Get("histogram'")
		s, err := Attach(w.Build(workload.Options{Scale: 0.15, HeapBias: AttachBias}), WithSeed(1), WithPollInterval(50_000))
		if err != nil {
			b.Fatal(err)
		}
		if point.cycles > 0 {
			if done, err := s.RunFor(point.cycles); err != nil || done {
				b.Fatalf("RunFor: done=%t err=%v", done, err)
			}
		}
		blob, err := s.CaptureState().Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(point.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(blob)), "bytes")
			for i := 0; i < b.N; i++ {
				if _, err := s.CaptureState().Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(point.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeSessionState(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
		s.Close()
	}
}
