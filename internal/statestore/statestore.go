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
// A journal is created whole: the three files are written into a
// staging directory inside sessions/ and renamed into place together,
// so a crash never leaves a session directory without its checkpoint.
//
// Checkpoints are written to a temp file in the same directory and
// renamed into place, and verified against their checksum on read, so a crash at any instant leaves either the
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
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	// CodeVersion pins the simulator build (CodeVersion); a snapshot
	// never restores across code versions.
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

// CodeVersion identifies the simulator build that journals are pinned
// to: the VCS revision stamped into the binary, with "+dirty" for a
// modified tree, else "dev" (builds without VCS stamping, notably `go
// test` binaries and `go run`). A checkpoint's payload decodes only on
// the build that wrote it.
func CodeVersion() string {
	versionOnce.Do(func() { version = resolveVersion() })
	return version
}

var (
	versionOnce sync.Once
	version     string
)

func resolveVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
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
	if rev == "" {
		return "dev"
	}
	return rev + dirty
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

// Open creates the journal layout under dir and removes what a crash
// left of interrupted creates and removes: nothing was acknowledged for
// a staged journal, since a session is only acknowledged after its
// journal exists, and a journal being removed was already deleted.
func Open(dir string) (*Store, error) {
	sessions := filepath.Join(dir, "sessions")
	for _, d := range []string{dir, sessions, filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("statestore: %w", err)
		}
	}
	ents, err := os.ReadDir(sessions)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	for _, e := range ents {
		if transient(e.Name()) {
			if err := os.RemoveAll(filepath.Join(sessions, e.Name())); err != nil {
				return nil, fmt.Errorf("statestore: %w", err)
			}
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) sessionDir(id string) string {
	return filepath.Join(s.dir, "sessions", id)
}

// Directories under sessions/ whose names start with a dot are never
// journals: CreateSession builds a journal in a ".create-" directory
// before renaming it into place, and Remove renames a journal to
// ".remove-" before deleting it. Sessions never lists them, and Open
// removes what a crash left of them.
const (
	stagingPrefix  = ".create-"
	removingPrefix = ".remove-"
)

// transient reports whether a sessions/ entry is a staging or removing
// directory rather than a journal.
func transient(name string) bool { return strings.HasPrefix(name, ".") }

// CreateSession starts a session's journal whole: attach.json, the
// frames emitted so far (seq 0 on) and the first checkpoint are written
// into a staging directory inside sessions/, which is then renamed to
// the session's own. A crash at any instant therefore leaves either no
// journal or a complete one; Open removes an interrupted staging
// directory. It returns the checkpoint's size in bytes.
func (s *Store) CreateSession(attach []byte, frames [][]byte, stamps []int64, meta Meta, state []byte) (int, error) {
	ckpt, err := encodeCheckpoint(meta, state)
	if err != nil {
		return 0, err
	}
	stage, err := os.MkdirTemp(filepath.Join(s.dir, "sessions"), stagingPrefix+meta.ID+"-")
	if err != nil {
		return 0, fmt.Errorf("statestore: %w", err)
	}
	if err := s.publish(stage, meta.ID, attach, frames, stamps, ckpt); err != nil {
		os.RemoveAll(stage)
		return 0, err
	}
	return len(ckpt), nil
}

// publish fills a staging directory with a new journal's files and
// renames it to the session's directory.
func (s *Store) publish(stage, id string, attach []byte, frames [][]byte, stamps []int64, ckpt []byte) error {
	// MkdirTemp makes the directory private; journals are
	// world-readable.
	if err := os.Chmod(stage, 0o755); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	files := map[string][]byte{"attach.json": attach, "checkpoint.snap": ckpt}
	if len(frames) > 0 {
		files["frames.log"] = encodeFrames(0, frames, stamps)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(stage, name), data, 0o644); err != nil {
			return fmt.Errorf("statestore: %w", err)
		}
	}
	// Injected after the staged writes, so a fault exercises the cleanup
	// of a fully staged journal.
	if err := faultinject.Error(faultinject.PointStateWriteErr, id, 1); err != nil {
		return err
	}
	if err := os.Rename(stage, s.sessionDir(id)); err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	return nil
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
	_, werr := f.Write(encodeFrames(seq, frames, stamps))
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
	ckpt, err := encodeCheckpoint(meta, state)
	if err != nil {
		return 0, err
	}
	if err := atomicWrite(s.sessionDir(meta.ID), "checkpoint.snap", ckpt); err != nil {
		return 0, err
	}
	return len(ckpt), nil
}

// encodeCheckpoint renders a checkpoint file: magic, Meta header,
// payload checksum, payload.
func encodeCheckpoint(meta Meta, state []byte) ([]byte, error) {
	header, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	sum := sha256.Sum256(state)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\n%s\n%s\n", magic, header, hex.EncodeToString(sum[:]))
	buf.Write(state)
	return buf.Bytes(), nil
}

// encodeFrames renders frame-log records; frames[i] carries sequence
// number seq+i and append stamp stamps[i].
func encodeFrames(seq uint64, frames [][]byte, stamps []int64) []byte {
	var buf bytes.Buffer
	for i, frame := range frames {
		fmt.Fprintf(&buf, "f %d %d %d\n", seq+uint64(i), stamps[i], len(frame))
		buf.Write(frame)
	}
	return buf.Bytes()
}

// Sessions lists the journaled session ids, sorted.
func (s *Store) Sessions() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && !transient(e.Name()) {
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
	log := encodeFrames(0, frames, stamps)
	path := filepath.Join(s.sessionDir(id), "frames.log")
	old, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err == nil && bytes.Equal(old, log) {
		return nil
	}
	return atomicWrite(s.sessionDir(id), "frames.log", log)
}

// Remove deletes a session's journal (DELETE, idle reap). The journal
// is renamed out of the session list first, so a crash mid-delete
// leaves a directory Open removes, not a torn journal boot would
// quarantine.
func (s *Store) Remove(id string) error {
	dead := filepath.Join(s.dir, "sessions", removingPrefix+id)
	if err := os.Rename(s.sessionDir(id), dead); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("statestore: %w", err)
	}
	if err := os.RemoveAll(dead); err != nil {
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
// rename, world-readable.
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
