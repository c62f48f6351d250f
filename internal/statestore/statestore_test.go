package statestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func frames(n int, prefix string) ([][]byte, []int64) {
	fs := make([][]byte, n)
	ts := make([]int64, n)
	for i := range fs {
		fs[i] = []byte(fmt.Sprintf("id: %d\nevent: %s\ndata: {}\n\n", i, prefix))
		ts[i] = int64(1000 + i)
	}
	return fs, ts
}

func TestJournalRoundTrip(t *testing.T) {
	s := testStore(t)
	if _, err := s.CreateSession([]byte(`{"workload":"dedup"}`), nil, nil, Meta{ID: "s1", State: "idle"}, nil); err != nil {
		t.Fatal(err)
	}
	fs, ts := frames(5, "SampleBatch")
	if err := s.AppendFrames("s1", 0, fs[:3], ts[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFrames("s1", 3, fs[3:], ts[3:]); err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "s1", CodeVersion: "v", Fingerprint: "fp", Events: 5, State: "paused", Running: true}
	n, err := s.WriteCheckpoint(meta, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if n <= len("payload-bytes") {
		t.Fatalf("checkpoint wrote %d bytes, want header + payload", n)
	}

	ids, err := s.Sessions()
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("Sessions() = %v, %v", ids, err)
	}
	j, err := s.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta != meta {
		t.Fatalf("meta round-trip: %+v vs %+v", j.Meta, meta)
	}
	if string(j.State) != "payload-bytes" || string(j.Attach) != `{"workload":"dedup"}` {
		t.Fatalf("payload/attach round-trip failed")
	}
	if len(j.Frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(j.Frames))
	}
	for i := range fs {
		if !bytes.Equal(j.Frames[i], fs[i]) || j.Stamps[i] != ts[i] {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// Frames appended after the last durable checkpoint belong to a lost
// future; load trims to the checkpoint's Events.
func TestLoadTrimsFramesPastCheckpoint(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	fs, ts := frames(6, "x")
	s.AppendFrames("s1", 0, fs, ts)
	if _, err := s.WriteCheckpoint(Meta{ID: "s1", Events: 4, State: "idle"}, []byte("p")); err != nil {
		t.Fatal(err)
	}
	j, err := s.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(j.Frames))
	}
}

// A frame log shorter than the checkpoint's Events is a journal
// inconsistency, never silently resumed.
func TestLoadRefusesShortFrameLog(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	fs, ts := frames(2, "x")
	s.AppendFrames("s1", 0, fs, ts)
	s.WriteCheckpoint(Meta{ID: "s1", Events: 4, State: "idle"}, []byte("p"))
	if _, err := s.LoadSession("s1"); err == nil || !strings.Contains(err.Error(), "frame log holds") {
		t.Fatalf("want frame-log consistency error, got %v", err)
	}
}

// A torn final record — SIGKILL mid-append — is truncated away.
func TestTornFrameLogTail(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	fs, ts := frames(3, "x")
	s.AppendFrames("s1", 0, fs, ts)
	path := filepath.Join(s.Dir(), "sessions", "s1", "frames.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s.WriteCheckpoint(Meta{ID: "s1", Events: 2, State: "idle"}, []byte("p"))
	j, err := s.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Frames) != 2 {
		t.Fatalf("got %d frames after torn tail, want 2", len(j.Frames))
	}
}

func TestCheckpointChecksumRejectsFlippedByte(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	s.WriteCheckpoint(Meta{ID: "s1", State: "idle"}, []byte("payload-bytes"))
	path := filepath.Join(s.Dir(), "sessions", "s1", "checkpoint.snap")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0x40
	os.WriteFile(path, raw, 0o644)
	if _, err := s.LoadSession("s1"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

func TestCheckpointHeaderMustNameDirectory(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	s.WriteCheckpoint(Meta{ID: "s1", State: "idle"}, []byte("p"))
	// Copy s1's journal under another id: the header no longer matches.
	src := filepath.Join(s.Dir(), "sessions", "s1")
	dst := filepath.Join(s.Dir(), "sessions", "s2")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSession("s2"); err == nil || !strings.Contains(err.Error(), "names session") {
		t.Fatalf("want header/directory mismatch error, got %v", err)
	}
}

func TestResetFramesTruncates(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	fs, ts := frames(6, "x")
	s.AppendFrames("s1", 0, fs, ts)
	if err := s.ResetFrames("s1", fs[:2], ts[:2]); err != nil {
		t.Fatal(err)
	}
	// Appends continue from the truncation point.
	if err := s.AppendFrames("s1", 2, fs[2:4], ts[2:4]); err != nil {
		t.Fatal(err)
	}
	s.WriteCheckpoint(Meta{ID: "s1", Events: 4, State: "idle"}, []byte("p"))
	j, err := s.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Frames) != 4 || !bytes.Equal(j.Frames[3], fs[3]) {
		t.Fatalf("reset+append round-trip broken: %d frames", len(j.Frames))
	}
}

// ResetFrames leaves a log that already holds exactly the frames it
// would write in place — the same file, not a rewritten copy — and
// replaces any other: one with frames past the checkpoint, or a torn
// tail.
func TestResetFramesSkipsCanonicalLog(t *testing.T) {
	s := testStore(t)
	path := filepath.Join(s.Dir(), "sessions", "s1", "frames.log")
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	reset := func(fs [][]byte, ts []int64) {
		t.Helper()
		if err := s.ResetFrames("s1", fs, ts); err != nil {
			t.Fatal(err)
		}
	}
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)

	// A missing log is an empty one: resetting it to no frames writes
	// nothing.
	reset(nil, nil)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("empty reset of a missing log created it: %v", err)
	}

	fs, ts := frames(5, "x")
	s.AppendFrames("s1", 0, fs[:3], ts[:3])
	before := stat()
	reset(fs[:3], ts[:3])
	if !os.SameFile(before, stat()) {
		t.Fatal("canonical log was rewritten")
	}

	s.AppendFrames("s1", 3, fs[3:], ts[3:])
	before = stat()
	reset(fs[:3], ts[:3])
	if os.SameFile(before, stat()) {
		t.Fatal("log with frames past the checkpoint was not replaced")
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	before = stat()
	reset(fs[:2], ts[:2])
	if os.SameFile(before, stat()) {
		t.Fatal("log with a torn tail was not replaced")
	}
	got, _, err := readFrameLog(path)
	if err != nil || len(got) != 2 {
		t.Fatalf("after reset: %d frames, %v", len(got), err)
	}
}

// FuzzFrameLog: reading a frame log built from arbitrary bytes never
// panics, and for every log it accepts, LoadSession returns its frames
// and ResetFrames rewrites it to a canonical log that reloads to the
// same frames and stamps — and that a second ResetFrames leaves alone.
// The seed logs are checked in under testdata/fuzz.
func FuzzFrameLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(s.Dir(), "sessions", "s1", "frames.log")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantStamps, err := readFrameLog(path)
		if err != nil {
			return
		}
		if _, err := s.WriteCheckpoint(Meta{ID: "s1", Events: uint64(len(want)), State: "idle"}, []byte("p")); err != nil {
			t.Fatal(err)
		}
		j, err := s.LoadSession("s1")
		if err != nil {
			t.Fatalf("LoadSession of an accepted log: %v", err)
		}
		if err := s.ResetFrames("s1", j.Frames, j.Stamps); err != nil {
			t.Fatal(err)
		}
		got, gotStamps, err := readFrameLog(path)
		if err != nil {
			t.Fatalf("reload after ResetFrames: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("reload has %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) || gotStamps[i] != wantStamps[i] {
				t.Fatalf("frame %d changed across ResetFrames", i)
			}
		}
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ResetFrames("s1", got, gotStamps); err != nil {
			t.Fatal(err)
		}
		if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
			t.Fatalf("ResetFrames rewrote the canonical log it had just written (%v)", err)
		}
	})
}

func TestQuarantineMovesJournal(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	s.WriteCheckpoint(Meta{ID: "s1", State: "idle"}, []byte("p"))
	if err := s.Quarantine("s1", fmt.Errorf("checksum failed")); err != nil {
		t.Fatal(err)
	}
	if ids, _ := s.Sessions(); len(ids) != 0 {
		t.Fatalf("quarantined session still listed: %v", ids)
	}
	q, err := s.Quarantined()
	if err != nil || len(q) != 1 || q[0] != "s1" {
		t.Fatalf("Quarantined() = %v, %v", q, err)
	}
	reason, err := os.ReadFile(filepath.Join(s.Dir(), "quarantine", "s1", "REASON"))
	if err != nil || !strings.Contains(string(reason), "checksum failed") {
		t.Fatalf("REASON = %q, %v", reason, err)
	}
	// A second quarantine under the same id must not clobber the first.
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	if err := s.Quarantine("s1", fmt.Errorf("again")); err != nil {
		t.Fatal(err)
	}
	if q, _ := s.Quarantined(); len(q) != 2 {
		t.Fatalf("want 2 quarantined journals, got %v", q)
	}
}

func TestRemoveDeletesJournal(t *testing.T) {
	s := testStore(t)
	s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil)
	if err := s.Remove("s1"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := s.Sessions(); len(ids) != 0 {
		t.Fatalf("removed session still listed: %v", ids)
	}
}

// The injected write fault fails journal writes for matching sessions
// only; the read-corruption fault truncates checkpoint bytes so the
// checksum rejects them — the hook the chaos-restart CI job uses.
func TestFaultInjection(t *testing.T) {
	plan, err := faultinject.Parse("seed=3;state.write.err:p=1,match=s1;state.read.corrupt:p=1,match=s2")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	s := testStore(t)
	if _, err := s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, nil); err == nil {
		t.Fatal("want injected write error on create")
	}
	if _, err := s.WriteCheckpoint(Meta{ID: "s1"}, []byte("p")); err == nil {
		t.Fatal("want injected write error on checkpoint")
	}
	fs, ts := frames(1, "x")
	if err := s.AppendFrames("s1", 0, fs, ts); err == nil {
		t.Fatal("want injected write error on append")
	}

	// s2 writes fine but reads back corrupt.
	if _, err := s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s2", State: "idle"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoint(Meta{ID: "s2", State: "idle"}, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSession("s2"); err == nil {
		t.Fatal("want corrupt read to fail validation")
	}

	// Unmatched sessions are untouched.
	if _, err := s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s3", State: "idle"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoint(Meta{ID: "s3", State: "idle"}, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSession("s3"); err != nil {
		t.Fatal(err)
	}
}

// CreateSession writes the attach record, the frames so far and the
// first checkpoint as one journal: it loads back whole.
func TestCreateSessionIsWhole(t *testing.T) {
	s := testStore(t)
	fs, ts := frames(3, "SampleBatch")
	meta := Meta{ID: "s1", CodeVersion: "v", Fingerprint: "fp", Events: 3, State: "idle"}
	n, err := s.CreateSession([]byte(`{"workload":"dedup"}`), fs, ts, meta, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if n <= len("payload-bytes") {
		t.Fatalf("create reported a %d-byte checkpoint, want header + payload", n)
	}
	j, err := s.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta != meta || string(j.State) != "payload-bytes" || string(j.Attach) != `{"workload":"dedup"}` {
		t.Fatalf("journal round-trip: %+v", j)
	}
	if len(j.Frames) != 3 || !bytes.Equal(j.Frames[2], fs[2]) || j.Stamps[2] != ts[2] {
		t.Fatalf("frames round-trip: %d frames", len(j.Frames))
	}
	info, err := os.Stat(filepath.Join(s.Dir(), "sessions", "s1"))
	if err != nil || info.Mode().Perm() != 0o755 {
		t.Fatalf("session directory: %v, %v; want mode 0755", info, err)
	}
}

// A write fault while creating a journal leaves no session directory,
// not even the staged one.
func TestCreateFaultLeavesNoSession(t *testing.T) {
	plan, err := faultinject.Parse("seed=3;state.write.err:p=1,match=s1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	s := testStore(t)
	fs, ts := frames(2, "x")
	if _, err := s.CreateSession([]byte("{}"), fs, ts, Meta{ID: "s1", Events: 2, State: "idle"}, []byte("p")); err == nil {
		t.Fatal("want injected write error on create")
	}
	ents, err := os.ReadDir(filepath.Join(s.Dir(), "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed create left %d entries under sessions/: %s", len(ents), ents[0].Name())
	}
}

// Open removes what an interrupted create or remove left behind, and
// Sessions never lists it as a journal.
func TestOpenRemovesStaging(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession([]byte("{}"), nil, nil, Meta{ID: "s1", State: "idle"}, []byte("p")); err != nil {
		t.Fatal(err)
	}
	stage := filepath.Join(dir, "sessions", stagingPrefix+"s2-123")
	dead := filepath.Join(dir, "sessions", removingPrefix+"s3")
	for _, d := range []string{stage, dead} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "attach.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ids, _ := s.Sessions(); len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("Sessions() = %v, want [s1]", ids)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{stage, dead} {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open: %v", filepath.Base(d), err)
		}
	}
	if _, err := s.LoadSession("s1"); err != nil {
		t.Fatalf("Open disturbed a complete journal: %v", err)
	}
}
