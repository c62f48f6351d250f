package serverd

// A hosted session: one laser.Session owned by the server, driven by at
// most one goroutine at a time, its event stream captured into a
// seq-numbered frame log that any number of SSE readers replay and
// follow. laser.Session is not internally synchronized, so every
// operation that touches it (step, run, snapshot, status stats) holds
// the hosted session's mutex; the runner releases it between steps, so
// snapshots and re-thresholding work mid-run.

import (
	"fmt"
	"sync"
	"time"

	"repro/laser"
)

// sessionState is the lifecycle of a hosted session.
type sessionState int

const (
	// stateIdle: attached, not executing; step and run accepted.
	stateIdle sessionState = iota
	// stateRunning: a runner goroutine is stepping the session.
	stateRunning
	// statePaused: a run was paused at a step boundary; run resumes it.
	statePaused
	// stateDone: the workload ran to completion; result available.
	stateDone
	// stateFailed: the session turned terminal with an error (workload
	// panic, cycle budget exhausted).
	stateFailed
	// stateClosed: detached (DELETE, TTL reap, server shutdown).
	stateClosed
)

func (s sessionState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateRunning:
		return "running"
	case statePaused:
		return "paused"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// eventLog is the bounded, seq-numbered store of a session's encoded
// SSE frames. Readers follow it with read/wake; when the backlog cap is
// exceeded the oldest frames rotate out and resuming below the rotation
// point reports gone (HTTP 410).
type eventLog struct {
	mu       sync.Mutex
	base     uint64        // seq of frames[0]
	frames   [][]byte      // canonical SSE frames, frames[i] has seq base+i
	stamps   []int64       // append wall time (ns), parallel to frames
	max      int           // backlog cap (frame count)
	terminal bool          // no further appends: stream complete
	wake     chan struct{} // closed and replaced on every append/terminal
	dropped  uint64
}

func newEventLog(max int) *eventLog {
	return &eventLog{max: max, wake: make(chan struct{})}
}

// append encodes and stores the frame for the next event. It returns
// the number of frames rotated out to keep the backlog within budget.
func (l *eventLog) append(e laser.Event, now int64) (droppedNow int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.terminal {
		return 0
	}
	seq := l.base + uint64(len(l.frames))
	l.frames = append(l.frames, EncodeFrame(seq, e))
	l.stamps = append(l.stamps, now)
	if n := len(l.frames) - l.max; n > 0 {
		l.base += uint64(n)
		l.frames = append([][]byte(nil), l.frames[n:]...)
		l.stamps = append([]int64(nil), l.stamps[n:]...)
		l.dropped += uint64(n)
		droppedNow = n
	}
	l.notify()
	return droppedNow
}

// terminalize marks the stream complete; readers that drain past the
// last frame then receive the eof frame and finish.
func (l *eventLog) terminalize() {
	l.mu.Lock()
	if !l.terminal {
		l.terminal = true
		l.notify()
	}
	l.mu.Unlock()
}

// notify wakes blocked readers. Callers hold l.mu.
func (l *eventLog) notify() {
	close(l.wake)
	l.wake = make(chan struct{})
}

// read returns the frames at and after seq from, the stamp of each, and
// the log's position. gone reports that from precedes the retained
// backlog (rotated out); wait is a channel that closes on the next
// append or terminalize, for readers that caught up.
func (l *eventLog) read(from uint64) (frames [][]byte, stamps []int64, total uint64, terminal, gone bool, wait <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	total = l.base + uint64(len(l.frames))
	if from < l.base {
		return nil, nil, total, l.terminal, true, nil
	}
	if from < total {
		i := from - l.base
		frames = l.frames[i:]
		stamps = l.stamps[i:]
	}
	return frames, stamps, total, l.terminal, false, l.wake
}

// seed initializes a recovered log: frames carry sequence numbers
// base..base+len-1 and everything before base is accounted as rotated
// out, so resuming clients see the same 410 boundary they would have
// without the restart.
func (l *eventLog) seed(base uint64, frames [][]byte, stamps []int64) {
	l.mu.Lock()
	l.base = base
	l.frames = frames
	l.stamps = stamps
	l.dropped = base
	l.mu.Unlock()
}

// counts returns (total appended, rotated out).
func (l *eventLog) counts() (total, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.frames)), l.dropped
}

// retained returns the number of frames currently held.
func (l *eventLog) retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// hosted is one server-side session.
type hosted struct {
	id  string
	srv *Server

	// Attach-time facts, immutable.
	req         AttachRequest
	fingerprint string
	maxCycles   uint64
	createdAt   time.Time

	log *eventLog

	// lastActive is the unix-nano of the last client interaction or
	// event emission; the TTL reaper compares against it.
	lastActive int64 // guarded by mu

	mu      sync.Mutex
	sess    *laser.Session
	state   sessionState
	failure string // error text when stateFailed
	pause   bool   // a pause was requested; runner honors it at a boundary
	result  *laser.Result

	// Durable-journal progress, meaningful only with a StateDir;
	// guarded by mu like the session itself.
	journaledSeq uint64 // frames flushed to the journal so far
	ckptEvents   uint64 // event total at the last checkpoint
	ckptCycles   uint64 // simulated cycles at the last checkpoint
	resumeOnBoot bool   // parked by shutdown mid-run; resume after restart
}

// touch refreshes the idle clock. Callers hold h.mu or are the only
// writer (the attach path).
func (h *hosted) touch(now time.Time) { h.lastActive = now.UnixNano() }

// observe is the laser observer: encode and log every event. It runs
// synchronously inside Step, i.e. under h.mu via whoever is stepping.
func (h *hosted) observe(e laser.Event) {
	now := time.Now()
	if dropped := h.log.append(e, now.UnixNano()); dropped > 0 {
		h.srv.met.eventsDropped.Add(uint64(dropped))
	}
	h.srv.met.eventsEmitted.Inc()
	if tr, ok := e.(laser.RepairTrialResult); ok {
		h.srv.met.repairTrials.Inc()
		if tr.Winner {
			h.srv.met.repairTrialsWon.Inc()
		}
	}
	h.lastActive = now.UnixNano()
}

// stepLocked advances the session one poll interval and folds the
// outcome into the state machine. Callers hold h.mu and have checked
// the state allows stepping.
func (h *hosted) stepLocked() (done bool) {
	stepDone, err := h.sess.Step()
	switch {
	case err != nil:
		h.state = stateFailed
		h.failure = err.Error()
		h.log.terminalize()
		return true
	case stepDone:
		h.state = stateDone
		if res, rerr := h.sess.Result(); rerr == nil {
			h.result = res
		}
		h.log.terminalize()
		h.checkpointLocked()
		return true
	}
	if h.srv.store != nil {
		total, _ := h.log.counts()
		if total-h.ckptEvents >= uint64(h.srv.cfg.CheckpointEvents) ||
			h.sess.Stats().Cycles-h.ckptCycles >= h.srv.cfg.CheckpointCycles {
			h.checkpointLocked()
		}
	}
	return false
}

// runLoop is the runner goroutine: acquire a simulation worker slot,
// then step until the workload completes, a pause or close lands, or
// the session turns terminal. The slot is held for the whole run — the
// cycle budget bounds it — and always released.
func (h *hosted) runLoop() {
	defer h.srv.wg.Done()
	defer h.srv.met.runsPending.Dec()
	select {
	case <-h.srv.workers:
	case <-h.srv.shutdown:
		h.mu.Lock()
		if h.state == stateRunning {
			h.state = statePaused
			h.resumeOnBoot = true
		}
		h.mu.Unlock()
		return
	}
	h.srv.met.workersBusy.Inc()
	defer func() {
		h.srv.met.workersBusy.Dec()
		h.srv.workers <- struct{}{}
	}()

	for {
		select {
		case <-h.srv.shutdown:
		default:
			h.mu.Lock()
			if h.state != stateRunning {
				h.mu.Unlock()
				return
			}
			if h.pause {
				h.pause = false
				h.state = statePaused
				h.touch(time.Now())
				h.checkpointLocked()
				h.mu.Unlock()
				return
			}
			done := h.stepLocked()
			h.mu.Unlock()
			if !done {
				continue
			}
			return
		}
		// Server shutting down: park the session where it stands. The
		// resumeOnBoot mark makes Close's final checkpoint record it as
		// running, so the next incarnation resumes the run.
		h.mu.Lock()
		if h.state == stateRunning {
			h.state = statePaused
			h.resumeOnBoot = true
		}
		h.mu.Unlock()
		return
	}
}

// close detaches the hosted session: the laser session is detached
// (idempotent, safe against a concurrent runner step), the log turns
// terminal, and the state becomes closed. A runner observing the state
// change exits at its next boundary and releases its worker slot.
func (h *hosted) close() {
	h.mu.Lock()
	already := h.state == stateClosed
	h.state = stateClosed
	h.mu.Unlock()
	if already {
		return
	}
	h.sess.Detach()
	h.log.terminalize()
}
