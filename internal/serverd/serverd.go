// Package serverd hosts many concurrent laser monitoring sessions
// behind an HTTP/JSON API — the laserd daemon's engine. It is the
// paper's Figure 8 stack turned into a long-lived multi-tenant service:
// clients attach sessions (a named workload or an uploaded custom
// image, with the full functional-option surface validated server
// side), drive them with step/run/pause, snapshot and re-threshold them
// mid-run, and follow the deterministic typed event stream over SSE
// with resumable sequence numbers.
//
// Three mechanisms make "thousands of clients on one host" a bounded,
// testable claim rather than a hope:
//
//   - Admission control. The concurrent-session pool and the
//     simulation-worker pool are both bounded; past either cap the
//     server answers 429 with Retry-After instead of degrading.
//   - Per-session budgets. Every session's cycle cap is clamped to the
//     server's per-session budget, and its event backlog is bounded
//     (oldest frames rotate out; resuming below the rotation point is
//     410 Gone).
//   - An idle-TTL reaper. Sessions nobody has touched for the TTL are
//     detached with laser.Session.Detach, which never waits for a
//     vanished consumer — an abandoned client cannot leak a goroutine
//     or pin a session slot forever.
package serverd

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/statestore"
	"repro/laser"
)

// Config bounds the server. The zero value takes every default.
type Config struct {
	// MaxSessions caps concurrently attached sessions; POST /sessions
	// past it returns 429. Default 256.
	MaxSessions int
	// Workers is the simulation worker pool: how many sessions may
	// execute simulated cycles at once. Default GOMAXPROCS.
	Workers int
	// MaxPendingRuns caps run requests admitted but not yet finished
	// (queued for a worker slot plus executing); past it POST run
	// returns 429. Default 4x Workers.
	MaxPendingRuns int
	// IdleTTL reaps sessions without client activity. Default 2m.
	IdleTTL time.Duration
	// ReapInterval is the reaper's scan cadence. Default IdleTTL/4.
	ReapInterval time.Duration
	// MaxSessionCycles is the per-session simulated-cycle budget; client
	// cycle caps are clamped to it. Default 200M.
	MaxSessionCycles uint64
	// MaxEventBacklog is the per-session cap on retained event frames.
	// Default 65536.
	MaxEventBacklog int
	// MaxStepPolls caps the poll intervals one POST step may execute.
	// Default 1024.
	MaxStepPolls int
	// StateDir, when non-empty, makes sessions durable: every session
	// journals its attach request, event frames and periodic
	// whole-machine checkpoints under this directory, and a restarting
	// server re-attaches every journaled session from its latest valid
	// checkpoint. Empty (the default) disables durability.
	StateDir string
	// CheckpointEvents is the checkpoint cadence in emitted events: a
	// running session checkpoints whenever this many events accumulated
	// since the last checkpoint. Default 256.
	CheckpointEvents int
	// CheckpointCycles is the checkpoint cadence in simulated cycles.
	// Default 25M.
	CheckpointCycles uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxPendingRuns == 0 {
		c.MaxPendingRuns = 4 * c.Workers
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 2 * time.Minute
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = c.IdleTTL / 4
	}
	if c.MaxSessionCycles == 0 {
		c.MaxSessionCycles = 200_000_000
	}
	if c.MaxEventBacklog == 0 {
		c.MaxEventBacklog = 65536
	}
	if c.MaxStepPolls == 0 {
		c.MaxStepPolls = 1024
	}
	if c.CheckpointEvents == 0 {
		c.CheckpointEvents = 256
	}
	if c.CheckpointCycles == 0 {
		c.CheckpointCycles = 25_000_000
	}
	return c
}

// serverMetrics is every counter and gauge laserd exports at /metrics.
type serverMetrics struct {
	reg *metrics.Registry

	sessionsAdmitted *metrics.Counter
	sessionsRejected *metrics.Counter
	sessionsReaped   *metrics.Counter
	sessionsClosed   *metrics.Counter
	runsRejected     *metrics.Counter
	eventsEmitted    *metrics.Counter
	eventsDelivered  *metrics.Counter
	eventsDropped    *metrics.Counter
	repairTrials     *metrics.Counter
	repairTrialsWon  *metrics.Counter
	runsPending      *metrics.Gauge
	workersBusy      *metrics.Gauge
	streamsActive    *metrics.Gauge

	// Durable-session metrics (all zero when StateDir is unset).
	sessionsRecovered   *metrics.Counter
	sessionsQuarantined *metrics.Counter
	checkpointsWritten  *metrics.Counter
	checkpointErrors    *metrics.Counter
	checkpointBytes     *metrics.Counter
	checkpointWriteNs   *metrics.Gauge
}

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg:              r,
		sessionsAdmitted: r.NewCounter("laserd_sessions_admitted_total", "Sessions accepted by POST /sessions."),
		sessionsRejected: r.NewCounter("laserd_sessions_rejected_total", "Sessions refused 429 at the concurrent-session cap."),
		sessionsReaped:   r.NewCounter("laserd_sessions_reaped_total", "Sessions detached by the idle-TTL reaper."),
		sessionsClosed:   r.NewCounter("laserd_sessions_closed_total", "Sessions removed by DELETE or server shutdown."),
		runsRejected:     r.NewCounter("laserd_runs_rejected_total", "Run/step requests refused 429 at worker-pool saturation."),
		eventsEmitted:    r.NewCounter("laserd_events_emitted_total", "Events appended to session event logs."),
		eventsDelivered:  r.NewCounter("laserd_events_delivered_total", "Event frames written to SSE streams."),
		eventsDropped:    r.NewCounter("laserd_events_dropped_total", "Event frames rotated out of bounded backlogs."),
		repairTrials:     r.NewCounter("laserd_repair_trials_total", "Speculative repair trials run across all sessions."),
		repairTrialsWon:  r.NewCounter("laserd_repair_trials_won", "Speculative repair trials whose candidate was selected."),
		runsPending:      r.NewGauge("laserd_runs_pending", "Run requests admitted and not yet finished."),
		workersBusy:      r.NewGauge("laserd_workers_busy", "Simulation worker slots in use."),
		streamsActive:    r.NewGauge("laserd_streams_active", "SSE event streams currently open."),

		sessionsRecovered:   r.NewCounter("laserd_sessions_recovered_total", "Sessions restored from the state journal at boot."),
		sessionsQuarantined: r.NewCounter("laserd_sessions_quarantined_total", "Unrecoverable journals moved to quarantine at boot."),
		checkpointsWritten:  r.NewCounter("laserd_checkpoints_total", "Session checkpoints written to the state journal."),
		checkpointErrors:    r.NewCounter("laserd_checkpoint_errors_total", "Failed journal writes; the session keeps running and retries."),
		checkpointBytes:     r.NewCounter("laserd_checkpoint_bytes_total", "Bytes written as checkpoint snapshots."),
		checkpointWriteNs:   r.NewGauge("laserd_checkpoint_write_ns", "Latency of the most recent checkpoint write (ns)."),
	}
	r.NewGaugeFunc("laserd_sessions_active", "Sessions currently attached.", func() int64 {
		return int64(s.sessionCount())
	})
	r.NewGaugeFunc("laserd_event_backlog", "Event frames retained across all session backlogs.", func() int64 {
		return s.backlogSize()
	})
	return m
}

// Server hosts the sessions. Create with New, serve Handler, stop with
// Close.
type Server struct {
	cfg Config
	met *serverMetrics

	mu       sync.RWMutex
	sessions map[string]*hosted

	// workers holds one token per simulation worker slot.
	workers  chan struct{}
	shutdown chan struct{}
	wg       sync.WaitGroup // runner goroutines + reaper

	// store is the durable session journal, nil without a StateDir.
	store *statestore.Store

	idSeq uint64 // session id counter, guarded by mu
}

// New builds a server and starts its reaper. With a StateDir configured
// it first recovers every journaled session from the previous
// incarnation — quarantining the unrecoverable ones rather than
// refusing to boot — and resumes the ones that were running.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*hosted),
		shutdown: make(chan struct{}),
	}
	s.workers = make(chan struct{}, s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers <- struct{}{}
	}
	s.met = newServerMetrics(s)
	if s.cfg.StateDir != "" {
		store, err := statestore.Open(s.cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.recoverAll()
	}
	s.wg.Add(1)
	go s.reapLoop()
	return s, nil
}

// Close detaches every session and stops the reaper and all runners.
// With a StateDir, every session is checkpointed before it is detached
// — graceful shutdown always leaves a journal the next incarnation
// restores from — and the journals are left in place. Safe to call
// once; the handler keeps answering (sessions all 404) until the
// caller shuts the HTTP server down.
func (s *Server) Close() error {
	close(s.shutdown)
	s.mu.Lock()
	all := make([]*hosted, 0, len(s.sessions))
	for id, h := range s.sessions {
		all = append(all, h)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	// Runners observe the shutdown and park at their next step boundary;
	// wait for them so the final checkpoints see settled sessions.
	s.wg.Wait()
	for _, h := range all {
		if s.store != nil {
			h.mu.Lock()
			h.checkpointLocked()
			h.mu.Unlock()
		}
		h.close()
		s.met.sessionsClosed.Inc()
	}
	return nil
}

// sessionCount returns the number of attached sessions.
func (s *Server) sessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// backlogSize sums retained event frames across sessions.
func (s *Server) backlogSize() int64 {
	s.mu.RLock()
	all := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		all = append(all, h)
	}
	s.mu.RUnlock()
	var n int64
	for _, h := range all {
		n += int64(h.log.retained())
	}
	return n
}

// get looks a session up.
func (s *Server) get(id string) (*hosted, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.sessions[id]
	return h, ok
}

// remove detaches and deregisters a session (DELETE, reaper). The
// session's journal goes with it: an explicitly deleted session must
// not resurrect at the next boot.
func (s *Server) remove(id string) bool {
	s.mu.Lock()
	h, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	h.close()
	if s.store != nil {
		s.store.Remove(id)
	}
	return true
}

// attach admits and registers a new hosted session. It returns the
// hosted session, or an admission/validation error to map to an HTTP
// status.
func (s *Server) attach(req AttachRequest) (*hosted, error) {
	if err := req.Validate(); err != nil {
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	opts, maxCycles := req.SessionOptions(s.cfg.MaxSessionCycles)

	// Admission: bound the concurrent-session pool before building
	// anything expensive.
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.met.sessionsRejected.Inc()
		return nil, &apiError{status: http.StatusTooManyRequests, msg: "session pool saturated", retryAfter: 1}
	}
	s.mu.Unlock()

	h := &hosted{
		srv:       s,
		req:       req,
		maxCycles: maxCycles,
		createdAt: time.Now(),
		log:       newEventLog(s.cfg.MaxEventBacklog),
	}
	h.touch(h.createdAt)
	img := req.BuildImage()
	sess, err := laser.Attach(img, append(opts, laser.WithObserver(h.observe))...)
	if err != nil {
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	h.sess = sess
	h.fingerprint = sess.Fingerprint()

	s.mu.Lock()
	// Re-check under the lock: the capacity probe above was advisory.
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		sess.Detach()
		s.met.sessionsRejected.Inc()
		return nil, &apiError{status: http.StatusTooManyRequests, msg: "session pool saturated", retryAfter: 1}
	}
	s.idSeq++
	var b [4]byte
	rand.Read(b[:])
	h.id = fmt.Sprintf("s%04d-%s", s.idSeq, hex.EncodeToString(b[:]))
	s.sessions[h.id] = h
	s.mu.Unlock()
	s.met.sessionsAdmitted.Inc()
	s.journalAttach(h)
	return h, nil
}

// startRun admits a run for the session: checks the pending-run bound,
// transitions the state, and spawns the runner.
func (s *Server) startRun(h *hosted) error {
	if s.met.runsPending.Value() >= int64(s.cfg.MaxPendingRuns) {
		s.met.runsRejected.Inc()
		return &apiError{status: http.StatusTooManyRequests, msg: "simulation worker pool saturated", retryAfter: 1}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case stateRunning:
		return &apiError{status: http.StatusConflict, msg: "session already running"}
	case stateDone, stateFailed, stateClosed:
		return &apiError{status: http.StatusConflict, msg: "session is " + h.state.String()}
	}
	h.state = stateRunning
	h.pause = false
	h.resumeOnBoot = false
	h.touch(time.Now())
	// Make Running=true durable before the first step: a crash anywhere
	// in the run then resumes it on reboot, even if the run is too short
	// to reach the first cadence checkpoint.
	h.checkpointLocked()
	s.met.runsPending.Inc()
	s.wg.Add(1)
	go h.runLoop()
	return nil
}

// reapLoop periodically detaches idle sessions.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.shutdown:
			return
		case now := <-t.C:
			s.reap(now)
		}
	}
}

// reap detaches sessions idle past the TTL. Running sessions refresh
// their idle clock on every emitted event, so only genuinely stalled or
// abandoned ones age out.
func (s *Server) reap(now time.Time) {
	cutoff := now.Add(-s.cfg.IdleTTL).UnixNano()
	s.mu.Lock()
	var victims []*hosted
	for id, h := range s.sessions {
		h.mu.Lock()
		idle := h.state != stateRunning && h.lastActive < cutoff
		h.mu.Unlock()
		if idle {
			victims = append(victims, h)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, h := range victims {
		h.close()
		if s.store != nil {
			s.store.Remove(h.id)
		}
		s.met.sessionsReaped.Inc()
	}
}

// apiError carries an HTTP status (and optional Retry-After) through
// the handler plumbing.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }
