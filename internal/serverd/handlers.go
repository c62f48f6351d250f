package serverd

// The HTTP surface. JSON in, JSON out, except /metrics (Prometheus
// text) and /sessions/{id}/events (SSE). Error bodies are
// {"error":"..."}; 429 responses carry Retry-After.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/statestore"
	"repro/laser"
)

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /sessions", s.handleAttach)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /sessions/{id}/step", s.handleStep)
	mux.HandleFunc("POST /sessions/{id}/run", s.handleRun)
	mux.HandleFunc("POST /sessions/{id}/pause", s.handlePause)
	mux.HandleFunc("GET /sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /sessions/{id}/report", s.handleReport)
	mux.HandleFunc("GET /sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /sessions/{id}/events", s.handleEvents)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeErr maps an error to an HTTP response. *apiError chooses its
// status; anything else is a 500.
func writeErr(w http.ResponseWriter, err error) {
	status, retry := http.StatusInternalServerError, 0
	if ae, ok := err.(*apiError); ok {
		status, retry = ae.status, ae.retryAfter
	}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// healthBody is the /healthz body. The recovery counts let an operator
// (and the chaos-restart CI job) confirm a reboot restored its sessions
// without scraping /metrics.
type healthBody struct {
	Status              string `json:"status"`
	Durable             bool   `json:"durable"`
	SessionsRecovered   uint64 `json:"sessions_recovered"`
	SessionsQuarantined uint64 `json:"sessions_quarantined"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{
		Status:              "ok",
		Durable:             s.store != nil,
		SessionsRecovered:   s.met.sessionsRecovered.Value(),
		SessionsQuarantined: s.met.sessionsQuarantined.Value(),
	})
}

// versionInfo is the /version body: the code-version string journals
// are pinned to, plus the default configuration's fingerprint, so a
// fleet can tell which laserd builds produce identical streams.
type versionInfo struct {
	CodeVersion        string `json:"code_version"`
	ConfigFingerprint  string `json:"default_config_fingerprint"`
	MaxSessions        int    `json:"max_sessions"`
	Workers            int    `json:"workers"`
	MaxSessionCycles   uint64 `json:"max_session_cycles"`
	MaxEventBacklog    int    `json:"max_event_backlog"`
	IdleTTLSeconds     int64  `json:"idle_ttl_seconds"`
	MaxPendingRunsSize int    `json:"max_pending_runs"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionInfo{
		CodeVersion:        statestore.CodeVersion(),
		ConfigFingerprint:  laser.DefaultConfig().Fingerprint(),
		MaxSessions:        s.cfg.MaxSessions,
		Workers:            s.cfg.Workers,
		MaxSessionCycles:   s.cfg.MaxSessionCycles,
		MaxEventBacklog:    s.cfg.MaxEventBacklog,
		IdleTTLSeconds:     int64(s.cfg.IdleTTL / time.Second),
		MaxPendingRunsSize: s.cfg.MaxPendingRuns,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req AttachRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, &apiError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()})
		return
	}
	h, err := s.attach(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, h.statusJSON())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	all := make([]*hosted, 0, len(s.sessions))
	for _, h := range s.sessions {
		all = append(all, h)
	}
	s.mu.RUnlock()
	list := make([]sessionStatus, 0, len(all))
	for _, h := range all {
		list = append(list, h.statusJSON())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": list})
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*hosted, bool) {
	h, ok := s.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{status: http.StatusNotFound, msg: "no such session"})
		return nil, false
	}
	return h, true
}

// sessionStatus is the status body shared by several endpoints.
type sessionStatus struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Workload      string  `json:"workload,omitempty"`
	Custom        bool    `json:"custom,omitempty"`
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	Epoch         int     `json:"epoch"`
	Events        uint64  `json:"events"`
	EventsDropped uint64  `json:"events_dropped"`
	MaxCycles     uint64  `json:"max_cycles"`
	Failure       string  `json:"failure,omitempty"`
	CreatedUnix   int64   `json:"created_unix"`
	IdleSeconds   float64 `json:"idle_seconds"`
}

// statusJSON snapshots the session's status.
func (h *hosted) statusJSON() sessionStatus {
	// The event count is read under h.mu, with the state: a runner
	// appends events and turns the session terminal inside one step
	// under h.mu, so a count read before the lock could be a step
	// older than the state it is reported with.
	h.mu.Lock()
	defer h.mu.Unlock()
	total, dropped := h.log.counts()
	st := h.sess.Stats()
	return sessionStatus{
		ID:            h.id,
		State:         h.state.String(),
		Workload:      h.req.Workload,
		Custom:        h.req.Custom != nil,
		Cycles:        st.Cycles,
		Instructions:  st.Instructions,
		Epoch:         h.sess.EpochIndex(),
		Events:        total,
		EventsDropped: dropped,
		MaxCycles:     h.maxCycles,
		Failure:       h.failure,
		CreatedUnix:   h.createdAt.Unix(),
		IdleSeconds:   time.Since(time.Unix(0, h.lastActive)).Seconds(),
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.mu.Lock()
	h.touch(time.Now())
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, h.statusJSON())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.remove(r.PathValue("id")) {
		writeErr(w, &apiError{status: http.StatusNotFound, msg: "no such session"})
		return
	}
	s.met.sessionsClosed.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// stepRequest is the optional POST step body.
type stepRequest struct {
	Polls int `json:"polls"`
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	req := stepRequest{Polls: 1}
	if r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, &apiError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()})
			return
		}
	}
	if req.Polls < 1 || req.Polls > s.cfg.MaxStepPolls {
		writeErr(w, &apiError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("polls must be in [1,%d], got %d", s.cfg.MaxStepPolls, req.Polls)})
		return
	}

	// Stepping executes simulated cycles on the caller's goroutine: it
	// takes a worker slot like a run does, but without queueing — a
	// saturated pool answers 429 immediately.
	select {
	case <-s.workers:
	default:
		s.met.runsRejected.Inc()
		writeErr(w, &apiError{status: http.StatusTooManyRequests, msg: "simulation worker pool saturated", retryAfter: 1})
		return
	}
	s.met.workersBusy.Inc()
	defer func() {
		s.met.workersBusy.Dec()
		s.workers <- struct{}{}
	}()

	h.mu.Lock()
	switch h.state {
	case stateRunning:
		h.mu.Unlock()
		writeErr(w, &apiError{status: http.StatusConflict, msg: "session is running; pause it to step"})
		return
	case stateClosed:
		h.mu.Unlock()
		writeErr(w, &apiError{status: http.StatusConflict, msg: "session is closed"})
		return
	}
	for i := 0; i < req.Polls; i++ {
		if h.state == stateDone || h.state == stateFailed {
			break
		}
		if h.state == statePaused {
			h.state = stateIdle
		}
		if h.stepLocked(nil) {
			break
		}
	}
	h.touch(time.Now())
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, h.statusJSON())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.startRun(h); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, h.statusJSON())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.mu.Lock()
	if h.state == stateRunning {
		h.pause = true
	}
	h.touch(time.Now())
	h.mu.Unlock()
	writeJSON(w, http.StatusAccepted, h.statusJSON())
}

// handleSnapshot returns the cumulative report at the configured
// threshold; handleReport accepts ?threshold= for the Figure 9 mid-run
// re-thresholding.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.reportAt(w, r, false)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.reportAt(w, r, true)
}

func (s *Server) reportAt(w http.ResponseWriter, r *http.Request, withThreshold bool) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	threshold := -1.0
	if withThreshold {
		if tq := r.URL.Query().Get("threshold"); tq != "" {
			t, err := strconv.ParseFloat(tq, 64)
			if err != nil || t < 0 {
				writeErr(w, &apiError{status: http.StatusBadRequest, msg: "threshold must be a non-negative number"})
				return
			}
			threshold = t
		}
	}
	h.mu.Lock()
	if h.state == stateClosed {
		h.mu.Unlock()
		writeErr(w, &apiError{status: http.StatusConflict, msg: "session is closed"})
		return
	}
	var rep reportJSON
	if threshold >= 0 {
		rep = encodeReport(h.sess.SnapshotAt(threshold))
	} else {
		rep = encodeReport(h.sess.Snapshot())
	}
	cycles := h.sess.Stats().Cycles
	h.touch(time.Now())
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"cycles": cycles, "report": rep})
}

// resultBody summarizes a completed session.
type resultBody struct {
	Seconds       float64    `json:"seconds"`
	RepairApplied bool       `json:"repair_applied"`
	RepairErr     string     `json:"repair_err,omitempty"`
	Epochs        int        `json:"epochs"`
	Report        reportJSON `json:"report"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	h.mu.Lock()
	res := h.result
	h.touch(time.Now())
	h.mu.Unlock()
	if res == nil {
		writeErr(w, &apiError{status: http.StatusConflict, msg: "session has not run to completion"})
		return
	}
	body := resultBody{
		Seconds:       res.Seconds,
		RepairApplied: res.RepairApplied,
		Epochs:        len(res.Epochs),
		Report:        encodeReport(res.Report),
	}
	if res.RepairErr != nil {
		body.RepairErr = res.RepairErr.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleEvents streams the session's events as SSE, resumable by
// sequence number: ?from=N or a Last-Event-ID header (the stream
// resumes after that id). The stream replays the retained backlog, then
// follows live until the stream is complete (terminal eof frame) or the
// client goes away. ?ts=1 interleaves non-canonical ": t=<unixnano>"
// comment lines carrying each frame's append time, for delivery-latency
// measurement.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, &apiError{status: http.StatusInternalServerError, msg: "streaming unsupported"})
		return
	}
	var from uint64
	if fq := r.URL.Query().Get("from"); fq != "" {
		n, err := strconv.ParseUint(fq, 10, 64)
		if err != nil {
			writeErr(w, &apiError{status: http.StatusBadRequest, msg: "from must be a sequence number"})
			return
		}
		from = n
	} else if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.ParseUint(lid, 10, 64)
		if err != nil {
			writeErr(w, &apiError{status: http.StatusBadRequest, msg: "Last-Event-ID must be a sequence number"})
			return
		}
		from = n + 1
	}
	stamps := r.URL.Query().Get("ts") == "1"

	// A resume below the rotated-out backlog cannot be served exactly;
	// tell the client rather than silently skipping events.
	if _, _, _, _, gone, _ := h.log.read(from); gone {
		writeErr(w, &apiError{status: http.StatusGone, msg: "events rotated out of backlog; resume not possible"})
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.met.streamsActive.Inc()
	defer s.met.streamsActive.Dec()

	ctx := r.Context()
	for {
		frames, frameStamps, total, terminal, gone, wait := h.log.read(from)
		if gone {
			// Rotated out from under a slow reader: nothing exact left
			// to send; end the stream so the client notices.
			return
		}
		for i, f := range frames {
			if stamps {
				fmt.Fprintf(w, ": t=%d\n", frameStamps[i])
			}
			if _, err := w.Write(f); err != nil {
				return
			}
			s.met.eventsDelivered.Inc()
		}
		if len(frames) > 0 {
			flusher.Flush()
			from = total
			h.mu.Lock()
			h.touch(time.Now())
			h.mu.Unlock()
			continue
		}
		if terminal {
			w.Write(EncodeEOF(total))
			flusher.Flush()
			return
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return
		case <-s.shutdown:
			return
		}
	}
}
