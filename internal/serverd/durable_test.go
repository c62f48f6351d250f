package serverd

// Durable-session tests: a server restarted on the same state
// directory re-attaches every journaled session from its latest
// checkpoint, resumes the ones that were running, and serves a byte-
// identical event stream across the restart — the same determinism
// claim the SSE tests make, now spanning a process boundary. Journals
// that cannot be restored are quarantined, never fatal to boot.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/runcache"
	"repro/internal/statestore"
	"repro/laser"
)

// bootDurable starts a server on dir without registering cleanup — the
// restart tests stop and reboot servers mid-test.
func bootDurable(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func health(t *testing.T, base string) healthBody {
	t.Helper()
	var hb healthBody
	if resp := doJSON(t, http.MethodGet, base+"/healthz", nil, &hb); resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	return hb
}

// longCustom is a custom image big enough that a shutdown lands
// mid-run, dense enough to emit events steadily.
func longCustom(seed int64) AttachRequest {
	poll := uint64(5_000)
	sav, threshold := 2, 0.0
	return AttachRequest{
		Custom: &CustomImage{Threads: 2, Iters: 1_000_000, Stride: 8, Alus: 4},
		Options: AttachOptions{
			Seed:          &seed,
			SAV:           &sav,
			PollInterval:  &poll,
			RateThreshold: &threshold,
		},
	}
}

func TestDurableRestartRecoversSessions(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	s1, ts1 := bootDurable(t, cfg)

	// A completed session and an idle (never-run) one.
	reqDone, reqIdle := denseCustom(42), denseCustom(7)
	wantDone := referenceStream(t, reqDone, budget)
	wantIdle := referenceStream(t, reqIdle, budget)
	done := attachT(t, ts1.URL, reqDone, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+done.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	final := waitState(t, ts1.URL, done.ID, "done")
	idle := attachT(t, ts1.URL, reqIdle, http.StatusCreated)

	ts1.Close()
	s1.Close()

	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); !hb.Durable || hb.SessionsRecovered != 2 || hb.SessionsQuarantined != 0 {
		t.Fatalf("post-restart health = %+v, want durable with 2 recovered", hb)
	}

	// The completed session: same id, still done, result served, and a
	// full replay is byte-identical to the pre-restart stream.
	st := waitState(t, ts2.URL, done.ID, "done")
	if st.Events != final.Events {
		t.Fatalf("recovered session has %d events, want %d", st.Events, final.Events)
	}
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/sessions/"+done.ID+"/result", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered result = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts2.URL, done.ID, "?from=0"); !bytes.Equal(got, wantDone) {
		t.Fatalf("recovered replay diverges: got %d bytes, want %d", len(got), len(wantDone))
	}

	// The idle session runs to completion in the new incarnation and
	// produces the canonical stream from its first event.
	waitState(t, ts2.URL, idle.ID, "idle")
	if resp := doJSON(t, http.MethodPost, ts2.URL+"/sessions/"+idle.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run after restart = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts2.URL, idle.ID, ""); !bytes.Equal(got, wantIdle) {
		t.Fatal("idle session run after restart diverges from canonical stream")
	}

	// New attachments must not collide with recovered ids.
	fresh := attachT(t, ts2.URL, quickCustom(9), http.StatusCreated)
	if fresh.ID == done.ID || fresh.ID == idle.ID {
		t.Fatalf("fresh id %q collides with a recovered one", fresh.ID)
	}
}

func TestDurableRestartResumesRunningSession(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	req := longCustom(23)
	want := referenceStream(t, req, budget)

	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}

	// Follow the live stream for three frames, then lose both the
	// connection and the server.
	const k = 3
	resp, err := http.Get(ts1.URL + "/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	head := readNFrames(t, resp.Body, k)
	resp.Body.Close()
	ts1.Close()
	s1.Close()

	// The new incarnation resumes the run on its own — no client run
	// request — and the standard SSE reconnect (Last-Event-ID of the
	// last frame seen before the restart) continues the stream exactly.
	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 1 {
		t.Fatalf("post-restart health = %+v, want 1 recovered", hb)
	}
	reqr, _ := http.NewRequest(http.MethodGet, ts2.URL+"/sessions/"+st.ID+"/events", nil)
	reqr.Header.Set("Last-Event-ID", strconv.Itoa(k-1))
	resp2, err := http.DefaultClient.Do(reqr)
	if err != nil {
		t.Fatal(err)
	}
	tail := collectBody(t, resp2)
	if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
		t.Fatalf("stream across restart diverges: head %d + tail %d bytes, want %d",
			len(head), len(tail), len(want))
	}
	waitState(t, ts2.URL, st.ID, "done")
}

func collectBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDurableQuarantine(t *testing.T) {
	doctor := func(t *testing.T, mutate func(dir string, raw []byte) []byte) (Config, string) {
		cfg := Config{StateDir: t.TempDir()}
		s1, ts1 := bootDurable(t, cfg)
		st := attachT(t, ts1.URL, quickCustom(3), http.StatusCreated)
		ts1.Close()
		s1.Close()
		path := filepath.Join(cfg.StateDir, "sessions", st.ID, "checkpoint.snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(filepath.Dir(path), raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return cfg, st.ID
	}
	check := func(t *testing.T, cfg Config, id, wantReason string) {
		s2, ts2 := bootDurable(t, cfg)
		defer func() { ts2.Close(); s2.Close() }()
		if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 || hb.SessionsQuarantined != 1 {
			t.Fatalf("health = %+v, want 1 quarantined", hb)
		}
		if resp := doJSON(t, http.MethodGet, ts2.URL+"/sessions/"+id, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("quarantined session lookup = %d, want 404", resp.StatusCode)
		}
		reason, err := os.ReadFile(filepath.Join(cfg.StateDir, "quarantine", id, "REASON"))
		if err != nil || !bytes.Contains(reason, []byte(wantReason)) {
			t.Fatalf("REASON = %q, %v; want substring %q", reason, err, wantReason)
		}
		// The daemon stays fully usable after quarantining.
		attachT(t, ts2.URL, quickCustom(4), http.StatusCreated)
	}

	t.Run("corrupt payload", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			raw[len(raw)-1] ^= 0x40
			return raw
		})
		check(t, cfg, id, "checksum")
	})

	t.Run("code version mismatch", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			// Rewrite the header's code_version; the header is outside the
			// payload checksum, so only the version gate can refuse it.
			lines := bytes.SplitN(raw, []byte("\n"), 3)
			var meta statestore.Meta
			if err := json.Unmarshal(lines[1], &meta); err != nil {
				t.Fatal(err)
			}
			meta.CodeVersion = "s1-otherbuild"
			doctored, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join([][]byte{lines[0], doctored, lines[2]}, []byte("\n"))
		})
		check(t, cfg, id, "code version")
	})

	// A journal written in the v1 layout (a gob payload) fails the
	// magic check: the daemon quarantines it rather than decoding it.
	t.Run("old format", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			_, rest, _ := bytes.Cut(raw, []byte("\n"))
			return append([]byte("laser-statestore v1\n"), rest...)
		})
		check(t, cfg, id, "bad magic")
	})

	// A payload that passes its checksum but is no snapshot encoding is
	// refused by the decoder, never a crash.
	t.Run("undecodable payload", func(t *testing.T) {
		cfg, id := doctor(t, func(_ string, raw []byte) []byte {
			lines := bytes.SplitN(raw, []byte("\n"), 4)
			payload := []byte("\x01not a session state")
			sum := sha256.Sum256(payload)
			lines[2] = []byte(hex.EncodeToString(sum[:]))
			lines[3] = payload
			return bytes.Join(lines, []byte("\n"))
		})
		check(t, cfg, id, "decoding session state")
	})
}

// Journal write failures never kill the session: it runs to completion
// with its canonical stream, the failures are counted, and with no
// journal on disk the next boot simply recovers nothing.
func TestDurableWriteFaultsAreNonFatal(t *testing.T) {
	plan, err := faultinject.Parse("seed=9;state.write.err:p=1,match=s00")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 4}
	budget := cfg.withDefaults().MaxSessionCycles
	req := denseCustom(51)
	want := referenceStream(t, req, budget)

	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts1.URL, st.ID, ""); !bytes.Equal(got, want) {
		t.Fatal("stream diverges under journal write faults")
	}
	if s1.met.checkpointErrors.Value() == 0 {
		t.Fatal("write faults fired but no checkpoint errors counted")
	}
	ts1.Close()
	s1.Close()

	faultinject.Enable(nil)
	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 || hb.SessionsQuarantined != 0 {
		t.Fatalf("health after lost journal = %+v, want nothing recovered", hb)
	}
}

// A crash between the first files of a new journal and its rename into
// place leaves a staging directory (statestore's ".create-" prefix).
// Nothing was acknowledged for it, so boot removes it silently: it is
// neither recovered nor quarantined.
func TestDurableBootDropsInterruptedCreate(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	s1, ts1 := bootDurable(t, cfg)
	attachT(t, ts1.URL, quickCustom(6), http.StatusCreated)
	ts1.Close()
	s1.Close()

	stage := filepath.Join(cfg.StateDir, "sessions", ".create-s0002-0badc0de-41")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "attach.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 1 || hb.SessionsQuarantined != 0 {
		t.Fatalf("health after an interrupted create = %+v, want 1 recovered and 0 quarantined", hb)
	}
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Fatalf("staging directory survived boot: %v", err)
	}
}

// DELETE erases the journal with the session: deleted sessions must not
// resurrect at the next boot.
func TestDurableDeleteRemovesJournal(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, quickCustom(6), http.StatusCreated)
	if resp := doJSON(t, http.MethodDelete, ts1.URL+"/sessions/"+st.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	store, err := statestore.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := store.Sessions(); len(ids) != 0 {
		t.Fatalf("journal survives DELETE: %v", ids)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := bootDurable(t, cfg)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 0 {
		t.Fatalf("deleted session recovered: %+v", hb)
	}
}

// The recovered checkpoint pins the code version the canonical way: the
// same string /version reports.
func TestDurableCheckpointPinsCodeVersion(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, quickCustom(8), http.StatusCreated)
	ts1.Close()
	s1.Close()

	store, err := statestore.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.LoadSession(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta.CodeVersion != runcache.CodeVersion() {
		t.Fatalf("checkpoint pins %q, daemon runs %q", j.Meta.CodeVersion, runcache.CodeVersion())
	}
	if j.Meta.Fingerprint == "" {
		t.Fatal("checkpoint has no config fingerprint")
	}
}

// BenchmarkRecoverJournal measures a durable boot: New over a state
// directory journaling eight idle sessions of laserload's attach
// request at its defaults, the boot perfbench's laserd_durable times.
func BenchmarkRecoverJournal(b *testing.B) {
	cfg := Config{StateDir: b.TempDir()}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		maxCycles, poll, sav, threshold := uint64(50_000_000), uint64(5_000), 2, 0.0
		req := AttachRequest{
			Custom: &CustomImage{Threads: 2, Iters: 20_000, Stride: 8, Alus: 2},
			Options: AttachOptions{Seed: &seed, SAV: &sav, PollInterval: &poll,
				MaxCycles: &maxCycles, RateThreshold: &threshold},
		}
		if _, err := s.attach(req); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := s.met.sessionsRecovered.Value(); n != 8 {
			b.Fatalf("recovered %d sessions, want 8", n)
		}
		s.Close()
		b.StartTimer()
	}
}

// TestDurableSpeculativeCheckpointMidReplay recovers a speculative-
// repair session from a crash image whose checkpoint was taken while
// the session was handing out the adopted trial fork's queued polls.
// The checkpoint materializes the session's own stack, so the
// recovered run must stream and report exactly what an uninterrupted
// in-memory twin does.
func TestDurableSpeculativeCheckpointMidReplay(t *testing.T) {
	req := namedSpeculative(5)
	budget := Config{}.withDefaults().MaxSessionCycles

	// The uninterrupted twin, one poll at a time: the cycles after each
	// poll, and the poll whose trigger ran the trial race.
	var events []laser.Event
	opts, _ := req.SessionOptions(budget)
	opts = append(opts, laser.WithObserver(func(e laser.Event) { events = append(events, e) }))
	twin, err := laser.Attach(req.BuildImage(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	var cycles []uint64
	race := -1
	for {
		seen := len(events)
		done, err := twin.Step()
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, twin.Stats().Cycles)
		for _, e := range events[seen:] {
			if _, ok := e.(laser.RepairTrialStarted); ok {
				race = len(cycles)
			}
		}
		if done {
			break
		}
	}
	// The fork's window must span at least two polls for one of them to
	// fall strictly inside the replay.
	if race < 0 || len(cycles) < race+2 {
		t.Fatalf("trial race at poll %d of %d: no poll strictly inside the replay", race, len(cycles))
	}
	want := EncodeStream(events)
	res, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantResult := resultBody{Seconds: res.Seconds, RepairApplied: res.RepairApplied,
		Epochs: len(res.Epochs), Report: encodeReport(res.Report)}
	if res.RepairErr != nil {
		wantResult.RepairErr = res.RepairErr.Error()
	}

	// The cycle cadence is set so that the only checkpoint after the
	// attach lands on the first poll past the race, inside the replay.
	mid := race + 1
	cfg := Config{StateDir: t.TempDir(), CheckpointEvents: 1 << 20, CheckpointCycles: cycles[mid-1]}
	s1, ts1 := bootDurable(t, cfg)
	st := attachT(t, ts1.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts1.URL+"/sessions/"+st.ID+"/step", stepRequest{Polls: mid}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("step = %d", resp.StatusCode)
	}
	// Crash: what is on disk now is all the next incarnation gets.
	crash := Config{StateDir: t.TempDir(), CheckpointEvents: cfg.CheckpointEvents, CheckpointCycles: cfg.CheckpointCycles}
	copyTree(t, cfg.StateDir, crash.StateDir)
	ts1.Close()
	s1.Close()

	s2, ts2 := bootDurable(t, crash)
	defer func() { ts2.Close(); s2.Close() }()
	if hb := health(t, ts2.URL); hb.SessionsRecovered != 1 {
		t.Fatalf("post-crash health = %+v, want 1 recovered", hb)
	}
	if rec := waitState(t, ts2.URL, st.ID, "idle"); rec.Cycles != cycles[mid-1] {
		t.Fatalf("recovered at cycle %d, want the mid-replay checkpoint at %d", rec.Cycles, cycles[mid-1])
	}
	if resp := doJSON(t, http.MethodPost, ts2.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run after crash = %d", resp.StatusCode)
	}
	if got := collectSSE(t, ts2.URL, st.ID, "?from=0"); !bytes.Equal(got, want) {
		t.Fatalf("stream across the crash diverges: got %d bytes, want %d", len(got), len(want))
	}
	waitState(t, ts2.URL, st.ID, "done")
	var got resultBody
	if resp := doJSON(t, http.MethodGet, ts2.URL+"/sessions/"+st.ID+"/result", nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(wantResult)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("result across the crash diverges:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// copyTree copies the regular files under src to dst, keeping the
// layout: a crash image of a state directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
