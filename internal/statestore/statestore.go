// Package statestore is laserd's durable session journal. Each hosted
// session owns one directory under <dir>/sessions/<id> holding three
// files:
//
//	attach.json     — the attach request and admission facts, written
//	                  once when the session is admitted;
//	frames.log      — the encoded SSE frame log, appended on the
//	                  checkpoint cadence: "f <seq> <stamp> <len>\n"
//	                  followed by the raw frame bytes;
//	checkpoint.snap — the latest whole-machine snapshot: the magic
//	                  line "laser-statestore v2", a one-line JSON Meta
//	                  header, the hex sha256 of the payload, then the
//	                  payload, a laser.SessionState in laser's compact
//	                  binary encoding.
//
// The payload carries no type information: it decodes only on the
// build that wrote it, which Meta.CodeVersion pins. A checkpoint in an
// older layout (the v1 gob payload) fails the magic check and is
// quarantined like any other unrestorable journal.
//
// Checkpoints follow the run cache's discipline — written to a temp
// file in the same directory and renamed into place, verified against
// their checksum on read — so a crash at any instant leaves either the
// previous checkpoint or the new one, never a torn hybrid. The frame
// log is append-only; a torn final record is the expected artifact of
// a SIGKILL mid-append and is truncated away on read. The recovery
// invariant ties the two files together: a checkpoint's Meta.Events
// counts the frames that were durable before the checkpoint was
// written, so a log holding at least that many frames is consistent
// (extras past it belong to a later, lost checkpoint and are trimmed),
// while a shorter log means the journal lies and the session is
// quarantined rather than resumed.
//
// Journals that cannot be restored — corrupt checkpoints, version or
// fingerprint mismatches, re-analysis failures — are moved wholesale
// into <dir>/quarantine/<id> with a REASON file, preserving the bytes
// for post-mortem while letting the daemon boot cleanly.
//
// The faultinject points "state.write.err" (checkpoint and frame-log
// writes) and "state.read.corrupt" (checkpoint reads) are keyed by
// session id and let the chaos tests exercise both disciplines
// deterministically.
package statestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// magic leads every checkpoint file; bump the version when the file
// layout or the payload encoding changes. (A SessionState schema change
// within one encoding is caught by the code version instead.)
const magic = "laser-statestore v2"

// Meta is the checkpoint header: everything recovery must know before
// deciding to decode and restore the payload.
type Meta struct {
	// ID is the hosted session id; recovery refuses a checkpoint whose
	// header disagrees with the directory it sits in.
	ID string `json:"id"`
	// CodeVersion pins the simulator build (runcache.CodeVersion); a
	// snapshot never restores across code versions.
	CodeVersion string `json:"code_version"`
	// Fingerprint pins the session's laser configuration.
	Fingerprint string `json:"fingerprint"`
	// Events is the total number of events the session had emitted at
	// capture time — and the number of frame-log records that were
	// durable before this checkpoint was written.
	Events uint64 `json:"events"`
	// State is the hosted lifecycle state at capture ("idle", "paused",
	// "done"); Running marks a checkpoint taken mid-run, so recovery
	// resumes the run instead of parking the session.
	State   string `json:"state"`
	Failure string `json:"failure,omitempty"`
	Running bool   `json:"running,omitempty"`
}

// Journal is one session's loaded, validated journal.
type Journal struct {
	ID     string
	Attach []byte // attach.json bytes
	Meta   Meta
	State  []byte   // checksum-verified encoded SessionState payload
	Frames [][]byte // frame log trimmed to Meta.Events records
	Stamps []int64  // append wall times, parallel to Frames
}

// Store is a session journal directory. Methods are safe for use from
// one goroutine per session id; distinct sessions never share files.
type Store struct {
	dir string
}

// Open creates the journal layout under dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "sessions"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("statestore: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) sessionDir(id string) string {
	return filepath.Join(s.dir, "sessions", id)
}

// CreateSession starts a session's journal: its directory and the
// attach.json record.
func (s *Store) CreateSession(id string, attach []byte) error {
	if err := faultinject.Error(faultinject.PointStateWriteErr, id, 1); err != nil {
		return err
	}
	dir := s.sessionDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	return atomicWrite(dir, "attach.json", attach)
}

// AppendFrames appends encoded SSE frames to the session's frame log;
// frames[i] carries sequence number seq+i and append stamp stamps[i].
func (s *Store) AppendFrames(id string, seq uint64, frames [][]byte, stamps []int64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := faultinject.Error(faultinject.PointStateWriteErr, id, 1); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.sessionDir(id), "frames.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	var buf bytes.Buffer
	for i, frame := range frames {
		fmt.Fprintf(&buf, "f %d %d %d\n", seq+uint64(i), stamps[i], len(frame))
		buf.Write(frame)
	}
	_, werr := f.Write(buf.Bytes())
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("statestore: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("statestore: %w", cerr)
	}
	return nil
}

// WriteCheckpoint atomically replaces the session's checkpoint. It
// returns the number of bytes written.
func (s *Store) WriteCheckpoint(meta Meta, state []byte) (int, error) {
	if err := faultinject.Error(faultinject.PointStateWriteErr, meta.ID, 1); err != nil {
		return 0, err
	}
	header, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("statestore: %w", err)
	}
	sum := sha256.Sum256(state)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\n%s\n%s\n", magic, header, hex.EncodeToString(sum[:]))
	buf.Write(state)
	dir := s.sessionDir(meta.ID)
	if err := atomicWrite(dir, "checkpoint.snap", buf.Bytes()); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// Sessions lists the journaled session ids, sorted.
func (s *Store) Sessions() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Quarantined lists the quarantined journal names, sorted.
func (s *Store) Quarantined() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// LoadSession reads and validates a session's journal: the checkpoint
// checksum, the header/directory agreement, and the frame-log/Events
// consistency invariant. The returned frames are trimmed to exactly
// Meta.Events records.
func (s *Store) LoadSession(id string) (*Journal, error) {
	dir := s.sessionDir(id)
	attach, err := os.ReadFile(filepath.Join(dir, "attach.json"))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.snap"))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	raw = faultinject.Corrupt(faultinject.PointStateReadCorrupt, id, raw)
	j := &Journal{ID: id, Attach: attach}
	if err := parseCheckpoint(raw, j); err != nil {
		return nil, err
	}
	if j.Meta.ID != id {
		return nil, fmt.Errorf("statestore: checkpoint header names session %q, journal directory is %q", j.Meta.ID, id)
	}
	frames, stamps, err := readFrameLog(filepath.Join(dir, "frames.log"))
	if err != nil {
		return nil, err
	}
	if uint64(len(frames)) < j.Meta.Events {
		return nil, fmt.Errorf("statestore: frame log holds %d frames, checkpoint expects %d", len(frames), j.Meta.Events)
	}
	j.Frames = frames[:j.Meta.Events]
	j.Stamps = stamps[:j.Meta.Events]
	return j, nil
}

// parseCheckpoint validates and splits a checkpoint file.
func parseCheckpoint(raw []byte, j *Journal) error {
	line, rest, ok := cutLine(raw)
	if !ok || line != magic {
		return fmt.Errorf("statestore: checkpoint has bad magic %q", line)
	}
	header, rest, ok := cutLine(rest)
	if !ok {
		return errors.New("statestore: checkpoint truncated in header")
	}
	if err := json.Unmarshal([]byte(header), &j.Meta); err != nil {
		return fmt.Errorf("statestore: checkpoint header: %w", err)
	}
	sumHex, payload, ok := cutLine(rest)
	if !ok {
		return errors.New("statestore: checkpoint truncated before checksum")
	}
	sum := sha256.Sum256(payload)
	if sumHex != hex.EncodeToString(sum[:]) {
		return errors.New("statestore: checkpoint payload fails its checksum")
	}
	j.State = payload
	return nil
}

// readFrameLog parses the append-only frame log. A torn final record —
// the normal residue of a SIGKILL mid-append — ends the read silently;
// anything structurally wrong before that is an error.
func readFrameLog(path string) (frames [][]byte, stamps []int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("statestore: %w", err)
	}
	next := uint64(0)
	for len(raw) > 0 {
		line, rest, ok := cutLine(raw)
		if !ok {
			break // torn header
		}
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "f" {
			return nil, nil, fmt.Errorf("statestore: frame log record %d malformed: %q", next, line)
		}
		seq, err1 := strconv.ParseUint(fields[1], 10, 64)
		stamp, err2 := strconv.ParseInt(fields[2], 10, 64)
		size, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil || size < 0 {
			return nil, nil, fmt.Errorf("statestore: frame log record %d malformed: %q", next, line)
		}
		if seq != next {
			return nil, nil, fmt.Errorf("statestore: frame log record has seq %d, want %d", seq, next)
		}
		if size > len(rest) {
			break // torn payload
		}
		frames = append(frames, append([]byte(nil), rest[:size]...))
		stamps = append(stamps, stamp)
		raw = rest[size:]
		next++
	}
	return frames, stamps, nil
}

// ResetFrames atomically rewrites the session's frame log — recovery
// truncates it to the restored checkpoint's Events so the resumed
// session's re-emitted frames append without duplication. A log that
// already holds exactly the canonical bytes (a missing log counts as
// empty) is left as it is: after a clean shutdown that is every log.
func (s *Store) ResetFrames(id string, frames [][]byte, stamps []int64) error {
	if err := faultinject.Error(faultinject.PointStateWriteErr, id, 1); err != nil {
		return err
	}
	var buf bytes.Buffer
	for i, frame := range frames {
		fmt.Fprintf(&buf, "f %d %d %d\n", uint64(i), stamps[i], len(frame))
		buf.Write(frame)
	}
	path := filepath.Join(s.sessionDir(id), "frames.log")
	old, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err == nil && bytes.Equal(old, buf.Bytes()) {
		return nil
	}
	return atomicWrite(s.sessionDir(id), "frames.log", buf.Bytes())
}

// Remove deletes a session's journal (DELETE, idle reap).
func (s *Store) Remove(id string) error {
	if err := os.RemoveAll(s.sessionDir(id)); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	return nil
}

// Quarantine moves a session's journal into the quarantine directory
// and records why, so an unrecoverable journal never fails a boot and
// never silently disappears either.
func (s *Store) Quarantine(id string, reason error) error {
	src := s.sessionDir(id)
	dst := filepath.Join(s.dir, "quarantine", id)
	for n := 2; ; n++ {
		if _, err := os.Stat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s-%d", id, n))
	}
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	msg := "unknown"
	if reason != nil {
		msg = reason.Error()
	}
	return atomicWrite(dst, "REASON", []byte(msg+"\n"))
}

// atomicWrite writes name under dir via a same-directory temp file and
// rename, world-readable like the run cache's entries.
func atomicWrite(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("statestore: %w", err)
	}
	return nil
}

// cutLine splits data at the first newline.
func cutLine(data []byte) (line string, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return "", nil, false
	}
	return string(data[:i]), data[i+1:], true
}
