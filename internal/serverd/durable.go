package serverd

// Durable sessions. With a StateDir configured, every hosted session
// journals three things through internal/statestore: its attach request
// (once, at admission, created together with the first checkpoint so a
// journal is never missing one), its encoded SSE frames (flushed on the
// checkpoint cadence), and a whole-machine laser.SessionState snapshot
// (replaced atomically on the same cadence, and always at run start,
// pause, completion and graceful shutdown). A restarting server replays
// the journal: the session is rebuilt with RestoreSession at the last
// checkpoint's Step boundary, the event log is re-seeded with the
// journaled frames so Last-Event-ID resumes span the restart, and
// sessions checkpointed mid-run are resumed.
//
// Restore is deterministically transparent, which is what ties the
// journal's two files together: the checkpoint's Meta.Events equals the
// event-log total at capture (both recorded under the session mutex at
// a Step boundary), the restored session's next event therefore takes
// exactly that sequence number, and any events the crashed incarnation
// emitted past the checkpoint are re-emitted byte-identically by the
// resumed run. Clients streaming across the restart see one seamless,
// canonical stream.
//
// Journal write failures are never fatal to the session: the failure is
// counted and the session keeps running, retrying at the next cadence.
// Unrecoverable journals at boot — corrupt checkpoints, code-version or
// fingerprint mismatches — are quarantined with a REASON file instead
// of failing the boot.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/statestore"
	"repro/laser"
)

// attachRecord is the attach.json payload: the request plus the
// admission facts needed to rebuild the exact option list. MaxCycles is
// the budget-clamped cap the session was admitted with; replaying it as
// the budget reproduces the original options even if the server's
// budget config changed across the restart.
type attachRecord struct {
	Request     AttachRequest `json:"request"`
	MaxCycles   uint64        `json:"max_cycles"`
	CreatedUnix int64         `json:"created_unix"`
}

// journalAttach creates a newly admitted session's journal: its attach
// record, the frames emitted so far and its first checkpoint, in one
// atomic create. A failure is counted, not fatal; the create is retried
// at the next checkpoint.
func (s *Server) journalAttach(h *hosted) {
	if s.store == nil {
		return
	}
	rec, err := json.Marshal(attachRecord{
		Request:     h.req,
		MaxCycles:   h.maxCycles,
		CreatedUnix: h.createdAt.Unix(),
	})
	if err != nil {
		s.met.checkpointErrors.Inc()
		return
	}
	h.mu.Lock()
	h.attachRec = rec
	h.checkpointLocked()
	h.mu.Unlock()
}

// checkpointLocked flushes unjournaled frames and atomically replaces
// the session's checkpoint with a fresh whole-machine snapshot — or,
// while the journal does not exist yet, creates it with both. Callers
// hold h.mu with the session at a Step boundary. Any failure leaves the
// previous checkpoint in place and is retried at the next cadence.
func (h *hosted) checkpointLocked() {
	s := h.srv
	if s.store == nil {
		return
	}
	switch h.state {
	case stateFailed, stateClosed:
		// Failed sessions deliberately keep their last good checkpoint:
		// restore re-runs the remaining cycles and re-fails
		// deterministically, preserving the failure for post-mortem.
		return
	}
	frames, stamps, total, _, gone, _ := h.log.read(h.journaledSeq)
	if gone {
		// Frames rotated out of the backlog before they were journaled
		// (cadence far above the backlog cap): the frame log can no
		// longer be exact, so stop extending it.
		s.met.checkpointErrors.Inc()
		return
	}
	if len(frames) > 0 && h.attachRec == nil {
		if err := s.store.AppendFrames(h.id, h.journaledSeq, frames, stamps); err != nil {
			s.met.checkpointErrors.Inc()
			return
		}
		h.journaledSeq = total
	}
	blob, err := h.sess.CaptureState().Encode()
	if err != nil {
		s.met.checkpointErrors.Inc()
		return
	}
	meta := statestore.Meta{
		ID:          h.id,
		CodeVersion: statestore.CodeVersion(),
		Fingerprint: h.fingerprint,
		Events:      total,
		State:       h.state.String(),
		Failure:     h.failure,
		Running:     h.state == stateRunning || (h.state == statePaused && h.resumeOnBoot),
	}
	start := time.Now()
	var n int
	if h.attachRec != nil {
		n, err = s.store.CreateSession(h.attachRec, frames, stamps, meta, blob)
		if err == nil {
			h.attachRec = nil
			h.journaledSeq = total
		}
	} else {
		n, err = s.store.WriteCheckpoint(meta, blob)
	}
	if err != nil {
		s.met.checkpointErrors.Inc()
		return
	}
	s.met.checkpointWriteNs.Set(time.Since(start).Nanoseconds())
	s.met.checkpointBytes.Add(uint64(n))
	s.met.checkpointsWritten.Inc()
	h.ckptEvents = total
	h.ckptCycles = h.sess.Stats().Cycles
}

// recoverAll replays the journal at boot: every journaled session is
// restored and registered under its original id; the unrecoverable
// ones are quarantined. Runs before the handler serves and before the
// reaper starts, so recovery races nothing.
func (s *Server) recoverAll() {
	ids, err := s.store.Sessions()
	if err != nil {
		s.met.checkpointErrors.Inc()
		return
	}
	var resume []*hosted
	for _, id := range ids {
		h, running, err := s.recoverSession(id)
		if err != nil {
			if qerr := s.store.Quarantine(id, err); qerr != nil {
				s.met.checkpointErrors.Inc()
			} else {
				s.met.sessionsQuarantined.Inc()
			}
			continue
		}
		s.mu.Lock()
		s.sessions[id] = h
		if n := idSeqOf(id); n > s.idSeq {
			s.idSeq = n
		}
		s.mu.Unlock()
		s.met.sessionsRecovered.Inc()
		if running {
			resume = append(resume, h)
		}
	}
	for _, h := range resume {
		s.resumeRun(h)
	}
}

// recoverSession rebuilds one hosted session from its journal. The
// returned bool reports whether the checkpoint was taken mid-run and
// the session should resume executing.
func (s *Server) recoverSession(id string) (*hosted, bool, error) {
	j, err := s.store.LoadSession(id)
	if err != nil {
		return nil, false, err
	}
	if v := statestore.CodeVersion(); j.Meta.CodeVersion != v {
		return nil, false, fmt.Errorf("checkpoint from code version %q, daemon runs %q", j.Meta.CodeVersion, v)
	}
	var rec attachRecord
	if err := json.Unmarshal(j.Attach, &rec); err != nil {
		return nil, false, fmt.Errorf("attach record: %w", err)
	}
	st, err := laser.DecodeSessionState(j.State)
	if err != nil {
		return nil, false, err
	}
	opts, maxCycles := rec.Request.SessionOptions(rec.MaxCycles)
	h := &hosted{
		id:          id,
		srv:         s,
		req:         rec.Request,
		fingerprint: j.Meta.Fingerprint,
		maxCycles:   maxCycles,
		createdAt:   time.Unix(rec.CreatedUnix, 0),
		log:         newEventLog(s.cfg.MaxEventBacklog),
	}
	h.touch(time.Now())
	sess, err := laser.RestoreSession(rec.Request.BuildImage(), st,
		append(opts, laser.WithObserver(h.observe))...)
	if err != nil {
		return nil, false, err
	}
	h.sess = sess

	// Re-seed the SSE backlog with the journaled frames (the newest
	// MaxEventBacklog of them; older ones count as rotated out, same as
	// they would have in the previous incarnation).
	kept, keptStamps := j.Frames, j.Stamps
	if n := len(kept) - s.cfg.MaxEventBacklog; n > 0 {
		kept, keptStamps = kept[n:], keptStamps[n:]
	}
	h.log.seed(j.Meta.Events-uint64(len(kept)),
		append([][]byte(nil), kept...), append([]int64(nil), keptStamps...))
	h.journaledSeq = j.Meta.Events
	h.ckptEvents = j.Meta.Events
	h.ckptCycles = sess.Stats().Cycles

	switch j.Meta.State {
	case "done":
		h.state = stateDone
		if res, rerr := sess.Result(); rerr == nil {
			h.result = res
		}
		h.log.terminalize()
	case "paused":
		h.state = statePaused
	default:
		h.state = stateIdle
	}
	// LoadSession trimmed the frames to the checkpoint; mirror that in
	// the on-disk log so the resumed session's re-emitted frames append
	// without duplication.
	if err := s.store.ResetFrames(id, j.Frames, j.Stamps); err != nil {
		s.met.checkpointErrors.Inc()
	}
	return h, j.Meta.Running, nil
}

// resumeRun restarts a session that was checkpointed mid-run. Unlike
// startRun it bypasses the pending-run admission cap: the cap guards
// interactive admission, and this work was already admitted before the
// restart — the worker pool still bounds actual parallelism.
func (s *Server) resumeRun(h *hosted) {
	h.mu.Lock()
	h.state = stateRunning
	h.pause = false
	h.resumeOnBoot = false
	h.mu.Unlock()
	s.met.runsPending.Inc()
	s.wg.Add(1)
	go h.runLoop()
}

// idSeqOf parses the counter out of a "s%04d-%s" session id so a
// restarted server's id sequence continues past every recovered id.
func idSeqOf(id string) uint64 {
	if !strings.HasPrefix(id, "s") {
		return 0
	}
	num, _, _ := strings.Cut(id[1:], "-")
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
