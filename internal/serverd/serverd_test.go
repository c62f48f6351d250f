package serverd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/laser"
)

// newTestServer boots a Server behind httptest and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doJSON performs a request with a JSON body and decodes a JSON reply.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// attachT posts an attach request and fails the test unless the status
// matches.
func attachT(t *testing.T, base string, req AttachRequest, wantStatus int) sessionStatus {
	t.Helper()
	var st sessionStatus
	resp := doJSON(t, http.MethodPost, base+"/sessions", req, &st)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /sessions = %d, want %d", resp.StatusCode, wantStatus)
	}
	return st
}

// quickCustom is a small deterministic attach: a few polls of genuine
// false sharing, done in well under 100ms.
func quickCustom(seed int64) AttachRequest {
	poll := uint64(20_000)
	sav, threshold := 5, 0.0
	return AttachRequest{
		Custom: &CustomImage{Threads: 2, Iters: 20_000, Stride: 8, Alus: 2},
		Options: AttachOptions{
			Seed:          &seed,
			SAV:           &sav,
			PollInterval:  &poll,
			RateThreshold: &threshold,
		},
	}
}

// waitState polls the session status until it reaches want.
func waitState(t *testing.T, base, id, want string) sessionStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st sessionStatus
		resp := doJSON(t, http.MethodGet, base+"/sessions/"+id, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET session = %d", resp.StatusCode)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthzAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hb healthBody
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hb); resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	if hb.Status != "ok" || hb.Durable {
		t.Fatalf("/healthz = %+v, want ok and not durable", hb)
	}
	var v versionInfo
	if resp := doJSON(t, http.MethodGet, ts.URL+"/version", nil, &v); resp.StatusCode != 200 {
		t.Fatalf("/version = %d", resp.StatusCode)
	}
	if v.CodeVersion == "" || v.ConfigFingerprint == "" {
		t.Fatalf("/version incomplete: %+v", v)
	}
	if v.ConfigFingerprint != laser.DefaultConfig().Fingerprint() {
		t.Fatalf("fingerprint mismatch: %q", v.ConfigFingerprint)
	}
}

func TestAttachValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	neg, zero := -1, 0
	cases := []struct {
		name string
		req  AttachRequest
	}{
		{"neither workload nor custom", AttachRequest{}},
		{"both workload and custom", AttachRequest{Workload: "histogram", Custom: &CustomImage{Threads: 1, Iters: 1, Stride: 8}}},
		{"unknown workload", AttachRequest{Workload: "nope"}},
		{"bad variant", AttachRequest{Workload: "histogram", Variant: "debug"}},
		{"negative scale", AttachRequest{Workload: "histogram", Scale: -1}},
		{"custom threads over cap", AttachRequest{Custom: &CustomImage{Threads: 999, Iters: 1, Stride: 8}}},
		{"custom stride misaligned", AttachRequest{Custom: &CustomImage{Threads: 1, Iters: 1, Stride: 9}}},
		{"custom iters over cap", AttachRequest{Custom: &CustomImage{Threads: 1, Iters: 1 << 40, Stride: 8}}},
		{"scale on custom", AttachRequest{Custom: &CustomImage{Threads: 1, Iters: 1, Stride: 8}, Scale: 2}},
		{"invalid cores", AttachRequest{Workload: "histogram", Options: AttachOptions{Cores: &neg}}},
		{"invalid sav", AttachRequest{Workload: "histogram", Options: AttachOptions{SAV: &zero}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody map[string]string
			resp := doJSON(t, http.MethodPost, ts.URL+"/sessions", tc.req, &errBody)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if errBody["error"] == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	// Unknown JSON fields are rejected, not ignored: the option surface
	// is validated, and a typoed option must not silently default.
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"workload":"histogram","optionz":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d, want 400", resp.StatusCode)
	}

	// A removed option is an unknown field too: a client still sending
	// it gets a 400 naming the field instead of a silently ignored knob.
	var removed map[string]string
	resp = doJSON(t, http.MethodPost, ts.URL+"/sessions",
		json.RawMessage(`{"workload":"histogram","options":{"segment_jit":true}}`), &removed)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(removed["error"], `"segment_jit"`) {
		t.Fatalf("removed option: %d %q, want 400 naming the field", resp.StatusCode, removed["error"])
	}

	// A conflicting option pair surfaces laser's own validation error.
	poll := uint64(1000)
	auto := true
	var errBody map[string]string
	resp2 := doJSON(t, http.MethodPost, ts.URL+"/sessions",
		AttachRequest{Workload: "histogram", Options: AttachOptions{PollInterval: &poll, AutoPoll: &auto}}, &errBody)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(errBody["error"], "WithAutoPollInterval") {
		t.Fatalf("conflicting cadence: %d %q", resp2.StatusCode, errBody["error"])
	}
}

func TestStepRunPauseLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := attachT(t, ts.URL, quickCustom(7), http.StatusCreated)
	if st.State != "idle" {
		t.Fatalf("fresh session state = %q", st.State)
	}

	// One explicit poll.
	var after sessionStatus
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/step", stepRequest{Polls: 1}, &after); resp.StatusCode != 200 {
		t.Fatalf("step = %d", resp.StatusCode)
	}
	if after.Cycles == 0 {
		t.Fatal("step advanced no cycles")
	}

	// Run to completion.
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, st.ID, "done")
	if done.Events == 0 {
		t.Fatal("completed session emitted no events")
	}

	// Result is available and repair-free for this image.
	var res resultBody
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions/"+st.ID+"/result", nil, &res); resp.StatusCode != 200 {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	if res.Seconds <= 0 || res.Epochs == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}

	// Running a done session conflicts; deleting it works; then 404s.
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("run after done = %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/sessions/"+st.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions/"+st.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", resp.StatusCode)
	}
}

func TestPauseParksARun(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessionCycles: 1 << 40})
	// About 32M cycles: long enough that a pause 5 ms in lands mid-run
	// (the whole test takes ~0.4 s natively), short enough that the run
	// finishes well inside waitState's 30 s under -race (~6 s).
	poll := uint64(50_000)
	req := AttachRequest{
		Custom:  &CustomImage{Threads: 2, Iters: 400_000, Stride: 8, Alus: 8},
		Options: AttachOptions{PollInterval: &poll},
	}
	st := attachT(t, ts.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	time.Sleep(5 * time.Millisecond)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/pause", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pause = %d", resp.StatusCode)
	}
	paused := waitState(t, ts.URL, st.ID, "paused")
	// Stepping a paused session works (and would resume it poll by poll).
	var after sessionStatus
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/step", stepRequest{Polls: 2}, &after); resp.StatusCode != 200 {
		t.Fatalf("step after pause = %d", resp.StatusCode)
	}
	if after.Cycles <= paused.Cycles {
		t.Fatalf("step after pause did not advance: %d -> %d", paused.Cycles, after.Cycles)
	}
	// And run resumes it to completion.
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume = %d", resp.StatusCode)
	}
	final := waitState(t, ts.URL, st.ID, "done")
	if paused.Cycles == 0 || paused.Cycles >= final.Cycles {
		t.Fatalf("pause did not land mid-run: paused at cycle %d of %d", paused.Cycles, final.Cycles)
	}
}

func TestBudgetClampTurnsTerminal(t *testing.T) {
	// The server budget caps the client's unbounded ask: the session
	// hits the cycle ceiling and turns failed, not runaway.
	_, ts := newTestServer(t, Config{MaxSessionCycles: 500_000})
	req := AttachRequest{Custom: &CustomImage{Threads: 2, Iters: 5_000_000, Stride: 8, Alus: 8}}
	st := attachT(t, ts.URL, req, http.StatusCreated)
	if st.MaxCycles != 500_000 {
		t.Fatalf("clamped budget = %d, want 500000", st.MaxCycles)
	}
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	failed := waitState(t, ts.URL, st.ID, "failed")
	if !strings.Contains(failed.Failure, "cycle limit") {
		t.Fatalf("failure = %q, want cycle limit", failed.Failure)
	}
}

func TestReportReThreshold(t *testing.T) {
	cfg := Config{}
	_, ts := newTestServer(t, cfg)
	req := quickCustom(3)
	st := attachT(t, ts.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")

	var loose, tight struct {
		Cycles uint64     `json:"cycles"`
		Report reportJSON `json:"report"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions/"+st.ID+"/report?threshold=0", nil, &loose); resp.StatusCode != 200 {
		t.Fatalf("report = %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions/"+st.ID+"/report?threshold=1e15", nil, &tight); resp.StatusCode != 200 {
		t.Fatalf("report = %d", resp.StatusCode)
	}
	if len(loose.Report.Lines) == 0 {
		t.Fatal("threshold=0 reported no lines for a falsely-sharing image")
	}
	if len(tight.Report.Lines) != 0 {
		t.Fatalf("threshold=1e15 still reports %d lines", len(tight.Report.Lines))
	}

	// The server-side re-threshold equals the in-process SnapshotAt on
	// an identical session — the remote endpoint adds no drift.
	img := req.BuildImage()
	opts, _ := req.SessionOptions(cfg.withDefaults().MaxSessionCycles)
	sess, err := laser.Attach(img, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(encodeReport(sess.SnapshotAt(0)))
	got, _ := json.Marshal(loose.Report)
	if !bytes.Equal(want, got) {
		t.Fatalf("remote re-threshold diverged:\n got %s\nwant %s", got, want)
	}

	// Bad threshold is rejected.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions/"+st.ID+"/report?threshold=-3", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad threshold = %d, want 400", resp.StatusCode)
	}
}

func TestReaperDetachesIdleSessions(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{IdleTTL: 60 * time.Millisecond, ReapInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	st := attachT(t, ts.URL, quickCustom(5), http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")

	// Abandon it: the reaper must detach and deregister.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := doJSON(t, http.MethodGet, ts.URL+"/sessions", nil, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("list = %d", resp.StatusCode)
		}
		if s.sessionCount() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.met.sessionsReaped.Value(); got != 1 {
		t.Fatalf("sessions_reaped_total = %d, want 1", got)
	}

	// Full teardown leaks nothing — the reaped session included.
	ts.Close()
	s.Close()
	waitLeak(t, base)
}

// waitLeak polls the goroutine count back down to base.
func waitLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := attachT(t, ts.URL, quickCustom(11), http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"laserd_sessions_active 1",
		"laserd_sessions_admitted_total 1",
		"# TYPE laserd_events_emitted_total counter",
		"laserd_runs_pending 0",
		"laserd_workers_busy 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics content type = %q", resp.Header.Get("Content-Type"))
	}
}

func TestListSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	attachT(t, ts.URL, quickCustom(1), http.StatusCreated)
	attachT(t, ts.URL, quickCustom(2), http.StatusCreated)
	var list struct {
		Sessions []sessionStatus `json:"sessions"`
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/sessions", nil, &list); resp.StatusCode != 200 {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list.Sessions))
	}
}

func TestServerCloseLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{MaxSessionCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	// A running session, an idle one, and one with an open stream.
	run := attachT(t, ts.URL, AttachRequest{
		Custom: &CustomImage{Threads: 2, Iters: 4_000_000, Stride: 8, Alus: 8},
	}, http.StatusCreated)
	doJSON(t, http.MethodPost, ts.URL+"/sessions/"+run.ID+"/run", nil, nil)
	idle := attachT(t, ts.URL, quickCustom(9), http.StatusCreated)
	resp, err := http.Get(ts.URL + "/sessions/" + idle.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, resp.Body)
	time.Sleep(10 * time.Millisecond)
	s.Close()
	ts.Close()
	resp.Body.Close()
	waitLeak(t, base)
}
