package serverd

// The PR's central determinism claim: the byte sequence a client
// receives over GET /sessions/{id}/events equals EncodeStream of the
// in-process Events observer for an identical session — including after
// resuming from a sequence number over a dropped connection.

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/repair"
	"repro/laser"
)

// referenceStream attaches an in-process twin of the request (same
// image, same options, same budget) and returns the canonical bytes of
// its complete event stream.
func referenceStream(t *testing.T, req AttachRequest, budget uint64) []byte {
	t.Helper()
	var events []laser.Event
	opts, _ := req.SessionOptions(budget)
	opts = append(opts, laser.WithObserver(func(e laser.Event) { events = append(events, e) }))
	sess, err := laser.Attach(req.BuildImage(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	return EncodeStream(events)
}

// denseCustom is a custom image tuned to emit a dozen-plus events.
func denseCustom(seed int64) AttachRequest {
	req := quickCustom(seed)
	poll := uint64(5_000)
	sav := 2
	req.Options.PollInterval = &poll
	req.Options.SAV = &sav
	return req
}

// namedHistogram attaches the falsely-sharing histogram benchmark at a
// small scale with a pinned seed.
func namedHistogram(seed int64) AttachRequest {
	sav := 5
	threshold := 0.0
	return AttachRequest{
		Workload: "histogram'",
		Scale:    0.1,
		Options:  AttachOptions{Seed: &seed, SAV: &sav, RateThreshold: &threshold},
	}
}

// namedSpeculative attaches linear_regression with speculative repair
// on, without the attach-time heap bias, at a scale where the §4.4
// trigger fires: the session runs a full four-candidate trial race and
// emits the trial event protocol over the wire.
func namedSpeculative(seed int64) AttachRequest {
	spec := true
	bias := false
	return AttachRequest{
		Workload: "linear_regression",
		Scale:    0.6,
		HeapBias: &bias,
		Options:  AttachOptions{Seed: &seed, SpeculativeRepair: &spec},
	}
}

// collectSSE runs the session and reads its whole event stream.
func collectSSE(t *testing.T, base, id, query string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/sessions/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSSEDeterminismMatchesInProcess(t *testing.T) {
	cfg := Config{}
	_, ts := newTestServer(t, cfg)
	budget := cfg.withDefaults().MaxSessionCycles
	for _, tc := range []struct {
		name string
		req  AttachRequest
	}{
		{"custom image", denseCustom(42)},
		{"named workload", namedHistogram(42)},
		{"speculative session", namedSpeculative(42)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceStream(t, tc.req, budget)

			st := attachT(t, ts.URL, tc.req, http.StatusCreated)
			if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("run = %d", resp.StatusCode)
			}
			// Follow live: the stream opens while the run is in flight and
			// still delivers the canonical bytes.
			got := collectSSE(t, ts.URL, st.ID, "")
			if !bytes.Equal(got, want) {
				t.Fatalf("live SSE bytes diverge from in-process stream:\n got %d bytes\nwant %d bytes\n got: %.400s\nwant: %.400s",
					len(got), len(want), got, want)
			}
			// Replay after completion: same bytes again.
			got2 := collectSSE(t, ts.URL, st.ID, "?from=0")
			if !bytes.Equal(got2, want) {
				t.Fatal("replayed SSE bytes diverge from in-process stream")
			}
		})
	}
}

// TestSSESpeculativeTrialEventsAndMetrics pins the wire-visible half of
// the speculative-repair protocol: the SSE stream of a trial-running
// session carries the RepairTrialStarted announcement and one
// RepairTrialResult per slate candidate in canonical order, and the
// server's trial counters advance to match.
func TestSSESpeculativeTrialEventsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := attachT(t, ts.URL, namedSpeculative(7), http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")

	raw := collectSSE(t, ts.URL, st.ID, "?from=0")
	if n := bytes.Count(raw, []byte("event: RepairTrialStarted\n")); n != 1 {
		t.Errorf("RepairTrialStarted frames = %d, want 1", n)
	}
	slate := repair.Candidates()
	if n := bytes.Count(raw, []byte("event: RepairTrialResult\n")); n != len(slate) {
		t.Errorf("RepairTrialResult frames = %d, want %d (one per candidate)", n, len(slate))
	}
	// The result frames appear in canonical slate order regardless of
	// which trial fork finished first.
	pos := -1
	for _, c := range slate {
		at := bytes.Index(raw, []byte(`"candidate":"`+c.Name()+`"`))
		if at < 0 {
			t.Fatalf("stream has no trial result for %q:\n%.600s", c.Name(), raw)
		}
		if at < pos {
			t.Fatalf("trial result for %q out of canonical order", c.Name())
		}
		pos = at
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"laserd_repair_trials_total 4",
		"laserd_repair_trials_won 1",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// readNFrames consumes exactly n SSE frames (blank-line terminated)
// from rd and returns their bytes.
func readNFrames(t *testing.T, rd io.Reader, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	br := bufio.NewReader(rd)
	frames := 0
	for frames < n {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended after %d frames, want %d: %v", frames, n, err)
		}
		buf.Write(line)
		if bytes.Equal(line, []byte("\n")) {
			frames++
		}
	}
	return buf.Bytes()
}

func TestSSEResumeAfterDroppedConnection(t *testing.T) {
	cfg := Config{}
	_, ts := newTestServer(t, cfg)
	req := denseCustom(17)
	want := referenceStream(t, req, cfg.withDefaults().MaxSessionCycles)

	st := attachT(t, ts.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}

	// Read three frames, then drop the connection mid-stream.
	const k = 3
	resp, err := http.Get(ts.URL + "/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	head := readNFrames(t, resp.Body, k)
	resp.Body.Close()

	// Resume from the sequence number; the concatenation must be the
	// exact canonical stream.
	tail := collectSSE(t, ts.URL, st.ID, "?from="+strconv.Itoa(k))
	if got := append(append([]byte(nil), head...), tail...); !bytes.Equal(got, want) {
		t.Fatalf("resume from=%d diverges:\nhead %d + tail %d bytes, want %d", k, len(head), len(tail), len(want))
	}

	// The standard SSE reconnect header resumes identically: the client
	// reports the last id it saw and the stream restarts one past it.
	reqr, _ := http.NewRequest(http.MethodGet, ts.URL+"/sessions/"+st.ID+"/events", nil)
	reqr.Header.Set("Last-Event-ID", strconv.Itoa(k-1))
	resp2, err := http.DefaultClient.Do(reqr)
	if err != nil {
		t.Fatal(err)
	}
	tail2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail2, tail) {
		t.Fatal("Last-Event-ID resume differs from ?from= resume")
	}
}

func TestSSETimestampCommentsAreNonCanonical(t *testing.T) {
	cfg := Config{}
	_, ts := newTestServer(t, cfg)
	req := denseCustom(23)
	want := referenceStream(t, req, cfg.withDefaults().MaxSessionCycles)

	st := attachT(t, ts.URL, req, http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")

	raw := collectSSE(t, ts.URL, st.ID, "?ts=1")
	var canonical []byte
	comments := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(": t=")) {
			comments++
			continue
		}
		canonical = append(canonical, line...)
	}
	if !bytes.Equal(canonical, want) {
		t.Fatal("ts=1 stream minus comment lines diverges from canonical bytes")
	}
	final := waitState(t, ts.URL, st.ID, "done")
	if uint64(comments) != final.Events {
		t.Fatalf("comment stamps = %d, want one per event (%d)", comments, final.Events)
	}
}

func TestSSEBacklogRotationReports410(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxEventBacklog: 4})
	st := attachT(t, ts.URL, denseCustom(31), http.StatusCreated)
	if resp := doJSON(t, http.MethodPost, ts.URL+"/sessions/"+st.ID+"/run", nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, st.ID, "done")
	if done.Events <= 4 || done.EventsDropped == 0 {
		t.Fatalf("backlog never rotated: %d events, %d dropped", done.Events, done.EventsDropped)
	}

	// A resume below the rotation point is 410 Gone, not a silent skip.
	resp, err := http.Get(ts.URL + "/sessions/" + st.ID + "/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("resume below backlog = %d, want 410", resp.StatusCode)
	}

	// Resuming within the retained window still works and ends with the
	// eof frame carrying the true total.
	from := done.Events - 4
	raw := collectSSE(t, ts.URL, st.ID, "?from="+strconv.FormatUint(from, 10))
	if !bytes.HasSuffix(raw, EncodeEOF(done.Events)) {
		t.Fatalf("retained-window resume missing eof(total=%d):\n%s", done.Events, raw)
	}
}

// TestEventLogRotationKeepsWindow appends many times the backlog cap and
// checks after every append that the log retains exactly the newest
// frames, numbered contiguously, with the 410 boundary just below them —
// and that a reader's earlier slice of the log is never overwritten.
func TestEventLogRotationKeepsWindow(t *testing.T) {
	const max, n = 64, 64*10 + 7
	l := newEventLog(max)
	var held [][]byte
	var heldCopy [][]byte
	for i := 0; i < n; i++ {
		wantDropped := 0
		if i >= max {
			wantDropped = 1
		}
		if got := l.append(laser.SampleBatch{}, int64(i)); got != wantDropped {
			t.Fatalf("append %d dropped %d, want %d", i, got, wantDropped)
		}
		total := uint64(i + 1)
		first := uint64(0)
		if total > max {
			first = total - max
		}
		if got := l.retained(); got != int(total-first) {
			t.Fatalf("after %d appends retained %d, want %d", total, got, total-first)
		}
		frames, stamps, gotTotal, _, gone, _ := l.read(first)
		if gone || gotTotal != total || len(frames) != int(total-first) || len(stamps) != len(frames) {
			t.Fatalf("read(%d) after %d appends: gone=%v total=%d frames=%d stamps=%d",
				first, total, gone, gotTotal, len(frames), len(stamps))
		}
		for j, f := range frames {
			seq := first + uint64(j)
			if !bytes.HasPrefix(f, []byte("id: "+strconv.FormatUint(seq, 10)+"\n")) || stamps[j] != int64(seq) {
				t.Fatalf("after %d appends frame %d = %q stamp %d, want seq %d", total, j, f, stamps[j], seq)
			}
		}
		if first > 0 {
			if _, _, _, _, gone, _ := l.read(first - 1); !gone {
				t.Fatalf("after %d appends read(%d) is not gone", total, first-1)
			}
		}
		if i == max+3 {
			held = frames
			for _, f := range frames {
				heldCopy = append(heldCopy, bytes.Clone(f))
			}
		}
	}
	if total, dropped := l.counts(); total != n || dropped != n-max {
		t.Fatalf("counts = %d, %d; want %d, %d", total, dropped, n, n-max)
	}
	for j := range held {
		if !bytes.Equal(held[j], heldCopy[j]) {
			t.Fatalf("a reader's frame %d changed under rotation: %q, was %q", j, held[j], heldCopy[j])
		}
	}
}

// BenchmarkEventLogAppendAtCap measures one append to a log already at
// the default backlog cap, the steady state of a long-running session.
func BenchmarkEventLogAppendAtCap(b *testing.B) {
	const max = 65536
	l := newEventLog(max)
	for i := 0; i < max; i++ {
		l.append(laser.SampleBatch{}, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.append(laser.SampleBatch{}, int64(i))
	}
}
