// Command laserload load-tests a running laserd: N concurrent clients
// each attach a session, run it, follow the SSE event stream to its eof
// frame, and close. Every streamed byte sequence is checked against an
// in-process reference session built from the identical attach request
// — the determinism contract means any divergence is a server bug, and
// laserload exits non-zero on one. 429 responses are retried honoring
// Retry-After (with jitter, so a fleet of rejected clients does not
// return in lockstep), and failures are attributed per phase — attach,
// run, stream, delete — in both the JSON report and the exit summary.
//
// With -daemon PATH laserload spawns its own laserd and, with
// -chaos-restart N, SIGKILLs and reboots it N times mid-load. Clients
// ride through each crash: connection errors retry until the per-
// session deadline, and the stream reader reconnects with the standard
// Last-Event-ID header, committing only completed frames — so the
// bytes a client accumulates across any number of crashes must still
// equal the reference stream exactly. The daemon runs with -state-dir,
// and each reboot's recovery counts (from /healthz) accumulate into
// the report; zero stream divergence across restarts is the durable-
// session acceptance claim, machine-checked.
//
// The summary — sessions/sec, peak concurrency, and event-delivery
// latency percentiles (frame receive time minus the server's append
// stamp, via the ?ts=1 comment lines) — is written as JSON to -out.
//
// Usage:
//
//	laserload [-url http://127.0.0.1:8347] [-sessions 120]
//	          [-concurrency 120] [-seeds 8] [-out BENCH_PR7.json]
//	          [-daemon ./laserd] [-daemon-addr 127.0.0.1:18351]
//	          [-state-dir DIR] [-chaos-restart N]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serverd"
	"repro/laser"
)

// clientMaxCycles is the explicit cycle cap every client sends. It is
// far above what a load-image run needs but below any sane server
// budget, so the effective budget — and therefore the reference stream
// — is the same regardless of the server's configured ceiling.
const clientMaxCycles = 50_000_000

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit status. Every exit goes
// through its deferred cleanup, so a spawned daemon is stopped and its
// temporary state dir removed on failure paths too; SIGINT and SIGTERM
// run the same cleanup before exiting.
func run(args []string) int {
	fs := flag.NewFlagSet("laserload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8347", "laserd base URL (ignored with -daemon)")
	sessions := fs.Int("sessions", 120, "total sessions to drive")
	concurrency := fs.Int("concurrency", 120, "concurrent client goroutines")
	seeds := fs.Int("seeds", 8, "distinct session seeds (and reference streams)")
	iters := fs.Int64("iters", 20_000, "custom image loop iterations")
	poll := fs.Uint64("poll", 5_000, "session poll interval in cycles")
	sav := fs.Int("sav", 2, "PEBS sample-after value")
	out := fs.String("out", "BENCH_PR7.json", "benchmark report output path")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-session deadline")
	daemon := fs.String("daemon", "", "laserd binary to spawn (required for -chaos-restart)")
	daemonAddr := fs.String("daemon-addr", "127.0.0.1:18351", "listen address for the spawned daemon")
	stateDir := fs.String("state-dir", "", "state dir for the spawned daemon (default: a temp dir)")
	ckptEvents := fs.Int("checkpoint-events", 8, "spawned daemon's checkpoint cadence in events")
	restarts := fs.Int("chaos-restart", 0, "SIGKILL and reboot the spawned daemon this many times mid-load")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "laserload: unexpected argument %q: laserload takes flags only\n", fs.Arg(0))
		return 2
	}
	if *sessions < 1 || *concurrency < 1 || *seeds < 1 {
		fmt.Fprintln(os.Stderr, "laserload: -sessions, -concurrency, -seeds must be positive")
		return 2
	}
	if *restarts > 0 && *daemon == "" {
		fmt.Fprintln(os.Stderr, "laserload: -chaos-restart needs -daemon (laserload must own the process it kills)")
		return 2
	}

	var dc *daemonCtl
	if *daemon != "" {
		dir, tempDir := *stateDir, ""
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "laserload-state-*"); err != nil {
				fmt.Fprintf(os.Stderr, "laserload: %v\n", err)
				return 1
			}
			tempDir = dir
		}
		dc = &daemonCtl{
			path: *daemon, addr: *daemonAddr, stateDir: dir,
			url: "http://" + *daemonAddr, ckptEvents: *ckptEvents,
		}
		cleanup := func() {
			dc.stop()
			if tempDir != "" {
				os.RemoveAll(tempDir)
			}
		}
		defer cleanup()
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		defer func() { signal.Stop(sigs); close(sigs) }()
		go func() {
			if sig, ok := <-sigs; ok {
				fmt.Fprintf(os.Stderr, "laserload: %v: stopping the daemon\n", sig)
				cleanup()
				os.Exit(1)
			}
		}()
		if err := dc.start(); err != nil {
			fmt.Fprintf(os.Stderr, "laserload: %v\n", err)
			return 1
		}
		*url = dc.url
	}

	// The server must exist and its budget must not clamp below ours,
	// or the reference streams would not match.
	var ver struct {
		CodeVersion      string `json:"code_version"`
		MaxSessionCycles uint64 `json:"max_session_cycles"`
	}
	if err := getJSON(*url+"/version", &ver); err != nil {
		fmt.Fprintf(os.Stderr, "laserload: %s unreachable: %v\n", *url, err)
		return 1
	}
	if ver.MaxSessionCycles < clientMaxCycles {
		fmt.Fprintf(os.Stderr, "laserload: server budget %d < client cap %d; streams would diverge by design\n",
			ver.MaxSessionCycles, clientMaxCycles)
		return 1
	}

	// One reference stream per seed, computed in-process up front.
	fmt.Fprintf(os.Stderr, "laserload: computing %d reference streams\n", *seeds)
	refs := make([][]byte, *seeds)
	for s := 0; s < *seeds; s++ {
		req := loadRequest(int64(s), *iters, *poll, *sav)
		ref, err := referenceStream(req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "laserload: reference seed %d: %v\n", s, err)
			return 1
		}
		refs[s] = ref
	}

	lc := &loadClient{
		url:     *url,
		refs:    refs,
		iters:   *iters,
		poll:    *poll,
		sav:     *sav,
		timeout: *timeout,
		chaos:   *restarts > 0,
	}
	fmt.Fprintf(os.Stderr, "laserload: driving %d sessions, concurrency %d\n", *sessions, *concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				lc.drive(i % len(refs))
			}
		}()
	}

	// The chaos goroutine waits for the stream mill to turn, then yanks
	// the daemon out from under it and reboots.
	loadDone := make(chan struct{})
	var chaos chaosStats
	var chaosWG sync.WaitGroup
	if *restarts > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaos.run(dc, lc, *restarts, loadDone)
		}()
	}

	for i := 0; i < *sessions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	close(loadDone)
	chaosWG.Wait()
	wall := time.Since(start)

	rep := lc.report(*sessions, *concurrency, *seeds, ver.CodeVersion, *url, wall)
	rep.RestartsInjected = chaos.injected
	rep.SessionsRecovered = chaos.recovered
	rep.SessionsQuarantined = chaos.quarantined
	if chaos.fatal != "" {
		lc.fail(&lc.failStream, "chaos: %s", chaos.fatal)
		rep.Failures++
		rep.FailuresByPhase = lc.phases()
	}
	blob, _ := json.MarshalIndent(rep, "", "  ")
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "laserload: write %s: %v\n", *out, err)
		return 1
	}
	os.Stdout.Write(blob)
	if rep.Divergences > 0 || rep.Failures > 0 {
		p := rep.FailuresByPhase
		fmt.Fprintf(os.Stderr, "laserload: FAILED: divergences=%d attach=%d run=%d stream=%d delete=%d\n",
			rep.Divergences, p["attach"], p["run"], p["stream"], p["delete"])
		return 1
	}
	if *restarts > 0 {
		fmt.Fprintf(os.Stderr, "laserload: ok: %d restarts injected, %d sessions recovered, %d quarantined, zero divergence\n",
			rep.RestartsInjected, rep.SessionsRecovered, rep.SessionsQuarantined)
	}
	fmt.Fprintf(os.Stderr, "laserload: ok: %.1f sessions/sec, peak %d concurrent, %d events byte-identical\n",
		rep.SessionsPerSec, rep.PeakConcurrent, rep.Events)
	return 0
}

// daemonCtl owns a spawned laserd process across kills and reboots.
// The chaos goroutine restarts it while a signal may stop it, so the
// process handle is guarded, and once stopped it is never started again.
type daemonCtl struct {
	path       string
	addr       string
	url        string
	stateDir   string
	ckptEvents int

	mu      sync.Mutex
	cmd     *exec.Cmd // nil when no daemon is running
	stopped bool
}

// daemonHealthWait bounds how long start waits for a spawned daemon's
// /healthz.
var daemonHealthWait = 30 * time.Second

// start spawns the daemon and waits for /healthz — which a durable
// daemon answers only after recovery has finished. A daemon that never
// becomes healthy is killed and reaped before start returns its error.
func (d *daemonCtl) start() error {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return fmt.Errorf("daemon on %s: stopped", d.addr)
	}
	cmd := exec.Command(d.path, "-addr", d.addr, "-state-dir", d.stateDir,
		"-checkpoint-events", strconv.Itoa(d.ckptEvents))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("spawn %s: %w", d.path, err)
	}
	d.cmd = cmd
	d.mu.Unlock()
	deadline := time.Now().Add(daemonHealthWait)
	for {
		var hb struct {
			Status string `json:"status"`
		}
		if err := getJSON(d.url+"/healthz", &hb); err == nil && hb.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return fmt.Errorf("daemon on %s not healthy after %v", d.addr, daemonHealthWait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// kill is the crash: SIGKILL, no goodbye.
func (d *daemonCtl) kill() { d.end(os.Kill) }

// stop is the graceful exit used at teardown; no start follows it.
func (d *daemonCtl) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.end(syscall.SIGTERM)
}

// end signals the running daemon, if any, and reaps it.
func (d *daemonCtl) end(sig os.Signal) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(sig)
	d.cmd.Wait()
	d.cmd = nil
}

// chaosStats drives and tallies the restart schedule.
type chaosStats struct {
	injected    int
	recovered   uint64
	quarantined uint64
	fatal       string
}

func (c *chaosStats) run(dc *daemonCtl, lc *loadClient, restarts int, loadDone <-chan struct{}) {
	for r := 0; r < restarts; r++ {
		// Wait until clients have streamed visibly more frames since the
		// last reboot, so every kill lands mid-delivery.
		base := lc.events.Load()
		for lc.events.Load() < base+20 {
			select {
			case <-loadDone:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
		dc.kill()
		if err := dc.start(); err != nil {
			c.fatal = err.Error()
			return
		}
		c.injected++
		var hb struct {
			Recovered   uint64 `json:"sessions_recovered"`
			Quarantined uint64 `json:"sessions_quarantined"`
		}
		if err := getJSON(dc.url+"/healthz", &hb); err == nil {
			c.recovered += hb.Recovered
			c.quarantined += hb.Quarantined
		}
	}
}

// loadRequest is the attach body every client sends for a seed.
func loadRequest(seed int64, iters int64, poll uint64, sav int) serverd.AttachRequest {
	maxCycles := uint64(clientMaxCycles)
	threshold := 0.0
	return serverd.AttachRequest{
		Custom: &serverd.CustomImage{Threads: 2, Iters: iters, Stride: 8, Alus: 2},
		Options: serverd.AttachOptions{
			Seed:          &seed,
			SAV:           &sav,
			PollInterval:  &poll,
			MaxCycles:     &maxCycles,
			RateThreshold: &threshold,
		},
	}
}

// referenceStream runs the request in-process and returns the canonical
// stream bytes every server-side twin must reproduce.
func referenceStream(req serverd.AttachRequest) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var events []laser.Event
	opts, _ := req.SessionOptions(clientMaxCycles)
	opts = append(opts, laser.WithObserver(func(e laser.Event) { events = append(events, e) }))
	sess, err := laser.Attach(req.BuildImage(), opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if _, err := sess.Wait(); err != nil {
		return nil, err
	}
	return serverd.EncodeStream(events), nil
}

// loadClient drives sessions and accumulates results.
type loadClient struct {
	url     string
	refs    [][]byte
	iters   int64
	poll    uint64
	sav     int
	timeout time.Duration
	chaos   bool // retry connection errors: the server crashes on purpose

	active      atomic.Int64
	peak        atomic.Int64
	events      atomic.Uint64
	retries429  atomic.Uint64
	retriesConn atomic.Uint64
	divergences atomic.Uint64

	// Failures attributed to the client phase that observed them.
	failAttach atomic.Uint64
	failRun    atomic.Uint64
	failStream atomic.Uint64
	failDelete atomic.Uint64

	mu        sync.Mutex
	latencies []int64 // per-delivered-frame ns
	errs      []string
}

func (lc *loadClient) fail(phase *atomic.Uint64, format string, args ...any) {
	phase.Add(1)
	lc.mu.Lock()
	if len(lc.errs) < 16 {
		lc.errs = append(lc.errs, fmt.Sprintf(format, args...))
	}
	lc.mu.Unlock()
}

func (lc *loadClient) phases() map[string]uint64 {
	return map[string]uint64{
		"attach": lc.failAttach.Load(),
		"run":    lc.failRun.Load(),
		"stream": lc.failStream.Load(),
		"delete": lc.failDelete.Load(),
	}
}

// drive runs one full client lifecycle: attach, run, stream, verify,
// close.
func (lc *loadClient) drive(seed int) {
	deadline := time.Now().Add(lc.timeout)
	req := loadRequest(int64(seed), lc.iters, lc.poll, lc.sav)

	var created struct {
		ID string `json:"id"`
	}
	if !lc.postRetry("attach", &lc.failAttach, lc.url+"/sessions", req, &created, deadline) {
		return
	}
	n := lc.active.Add(1)
	for {
		p := lc.peak.Load()
		if n <= p || lc.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer func() {
		lc.active.Add(-1)
		lc.deleteSession(created.ID, deadline)
	}()

	// A 409 means the session is already running — the reply to an
	// earlier run attempt was lost in a crash, but the run itself was
	// durable and resumed. That is success, not failure.
	if !lc.postRetry("run", &lc.failRun, lc.url+"/sessions/"+created.ID+"/run", nil, nil, deadline) {
		return
	}

	canonical, frames, err := lc.stream(created.ID, deadline)
	if err != nil {
		lc.fail(&lc.failStream, "session %s: stream: %v", created.ID, err)
		return
	}
	lc.events.Add(uint64(frames))
	if !bytes.Equal(canonical, lc.refs[seed]) {
		lc.divergences.Add(1)
		lc.fail(&lc.failStream, "session %s (seed %d): stream diverged: got %d bytes, want %d",
			created.ID, seed, len(canonical), len(lc.refs[seed]))
	}
}

// deleteSession closes the server-side session, riding through a crash
// window in chaos mode. 404 counts as success: the session is gone.
func (lc *loadClient) deleteSession(id string, deadline time.Time) {
	for {
		reqd, _ := http.NewRequest(http.MethodDelete, lc.url+"/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(reqd)
		if err != nil {
			if lc.chaos && time.Now().Before(deadline) {
				lc.retriesConn.Add(1)
				time.Sleep(jitter(200 * time.Millisecond))
				continue
			}
			lc.fail(&lc.failDelete, "DELETE %s: %v", id, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusNotFound {
			return
		}
		lc.fail(&lc.failDelete, "DELETE %s: %d", id, resp.StatusCode)
		return
	}
}

// jitter spreads wait over [0.5, 1.5) of itself so retried clients do
// not stampede back in lockstep.
func jitter(wait time.Duration) time.Duration {
	return time.Duration(float64(wait) * (0.5 + rand.Float64()))
}

// postRetry POSTs body, retrying 429s until the deadline honoring
// Retry-After (jittered), and — in chaos mode — retrying connection
// errors while the daemon reboots.
func (lc *loadClient) postRetry(phase string, counter *atomic.Uint64, url string, body any, out any, deadline time.Time) bool {
	for {
		var rd io.Reader
		if body != nil {
			blob, _ := json.Marshal(body)
			rd = bytes.NewReader(blob)
		}
		resp, err := http.Post(url, "application/json", rd)
		if err != nil {
			if lc.chaos && time.Now().Before(deadline) {
				lc.retriesConn.Add(1)
				time.Sleep(jitter(200 * time.Millisecond))
				continue
			}
			lc.fail(counter, "POST %s: %v", url, err)
			return false
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			if out != nil {
				if err := json.Unmarshal(blob, out); err != nil {
					lc.fail(counter, "POST %s: bad body %q: %v", url, blob, err)
					return false
				}
			}
			return true
		case resp.StatusCode == http.StatusConflict && lc.chaos && phase == "run":
			// The run reply was lost in a crash but the run is resumed.
			return true
		case resp.StatusCode == http.StatusTooManyRequests:
			lc.retries429.Add(1)
			wait := 100 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			wait = jitter(wait)
			if time.Now().Add(wait).After(deadline) {
				lc.fail(counter, "POST %s: still saturated at deadline", url)
				return false
			}
			time.Sleep(wait)
		default:
			lc.fail(counter, "POST %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(blob)))
			return false
		}
	}
}

// streamState accumulates one session's stream across connections.
type streamState struct {
	canonical bytes.Buffer
	latencies []int64
	frames    int
	lastID    int64 // id of the last committed frame, -1 before any
	sawEOF    bool
}

// stream follows the session's SSE stream to its eof frame, returning
// the canonical bytes (timestamp comments stripped) and the frame
// count. Only completed frames are committed; a connection lost
// mid-frame drops the partial bytes and reconnects with Last-Event-ID,
// so the accumulated bytes stay canonical across any number of server
// crashes. Each ": t=<ns>" comment carries the server-side append time
// of the following frame; the gap to the frame's receive time is the
// delivery latency sample.
func (lc *loadClient) stream(id string, deadline time.Time) ([]byte, int, error) {
	st := &streamState{lastID: -1}
	for !st.sawEOF {
		err := lc.streamOnce(id, st)
		if st.sawEOF {
			break
		}
		if !lc.chaos {
			if err != nil {
				return nil, 0, err
			}
			// Stream ended without the eof frame and without an error:
			// the pre-durability server closed it at shutdown. Nothing
			// exact left to read.
			break
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("no eof frame by deadline")
			}
			return nil, 0, err
		}
		lc.retriesConn.Add(1)
		time.Sleep(jitter(200 * time.Millisecond))
	}
	lc.mu.Lock()
	lc.latencies = append(lc.latencies, st.latencies...)
	lc.mu.Unlock()
	return st.canonical.Bytes(), st.frames, nil
}

// streamOnce follows one SSE connection, committing completed frames
// into st. Returns nil on clean EOF (terminal or not — st.sawEOF says
// which) and the transport error otherwise.
func (lc *loadClient) streamOnce(id string, st *streamState) error {
	req, err := http.NewRequest(http.MethodGet, lc.url+"/sessions/"+id+"/events?ts=1", nil)
	if err != nil {
		return err
	}
	if st.lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(st.lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %d", resp.StatusCode)
	}
	var frame bytes.Buffer
	frameID := int64(-1)
	stamp := int64(0)
	isEOF := false
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if strings.HasSuffix(line, "\n") { // ignore torn partial lines
			switch {
			case strings.HasPrefix(line, ": t="):
				stamp, _ = strconv.ParseInt(strings.TrimSpace(line[4:]), 10, 64)
			default:
				frame.WriteString(line)
				if strings.HasPrefix(line, "id: ") {
					frameID, _ = strconv.ParseInt(strings.TrimSpace(line[4:]), 10, 64)
				}
				if line == "event: eof\n" {
					isEOF = true
				}
				if line == "\n" { // blank line: the frame is complete
					frame.WriteTo(&st.canonical)
					frame.Reset()
					st.frames++
					lc.events.Add(1)
					if frameID >= 0 {
						st.lastID = frameID
						frameID = -1
					}
					if stamp != 0 {
						st.latencies = append(st.latencies, time.Now().UnixNano()-stamp)
						stamp = 0
					}
					if isEOF {
						st.sawEOF = true
						return nil
					}
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// benchReport is the BENCH_PR7.json schema.
type benchReport struct {
	GeneratedUnix       int64             `json:"generated_unix"`
	URL                 string            `json:"url"`
	CodeVersion         string            `json:"code_version"`
	Sessions            int               `json:"sessions"`
	Concurrency         int               `json:"concurrency"`
	Seeds               int               `json:"seeds"`
	WallSeconds         float64           `json:"wall_seconds"`
	SessionsPerSec      float64           `json:"sessions_per_sec"`
	PeakConcurrent      int               `json:"peak_concurrent_sessions"`
	Events              uint64            `json:"events_streamed"`
	Retries429          uint64            `json:"retries_429"`
	RetriesConn         uint64            `json:"retries_conn"`
	Divergences         int               `json:"divergences"`
	Failures            int               `json:"failures"`
	FailuresByPhase     map[string]uint64 `json:"failures_by_phase"`
	RestartsInjected    int               `json:"restarts_injected"`
	SessionsRecovered   uint64            `json:"sessions_recovered"`
	SessionsQuarantined uint64            `json:"sessions_quarantined"`
	Latency             latencySummary    `json:"event_delivery_latency_ns"`
	Errors              []string          `json:"errors,omitempty"`
}

type latencySummary struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

func (lc *loadClient) report(sessions, concurrency, seeds int, codeVersion, url string, wall time.Duration) benchReport {
	lc.mu.Lock()
	lat := append([]int64(nil), lc.latencies...)
	errs := append([]string(nil), lc.errs...)
	lc.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) int64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	sum := latencySummary{Count: len(lat), P50: pct(0.50), P90: pct(0.90), P99: pct(0.99)}
	if len(lat) > 0 {
		sum.Max = lat[len(lat)-1]
	}
	phases := lc.phases()
	failures := 0
	for _, n := range phases {
		failures += int(n)
	}
	return benchReport{
		GeneratedUnix:   time.Now().Unix(),
		URL:             url,
		CodeVersion:     codeVersion,
		Sessions:        sessions,
		Concurrency:     concurrency,
		Seeds:           seeds,
		WallSeconds:     wall.Seconds(),
		SessionsPerSec:  float64(sessions) / wall.Seconds(),
		PeakConcurrent:  int(lc.peak.Load()),
		Events:          lc.events.Load(),
		Retries429:      lc.retries429.Load(),
		RetriesConn:     lc.retriesConn.Load(),
		Divergences:     int(lc.divergences.Load()),
		Failures:        failures,
		FailuresByPhase: phases,
		Latency:         sum,
		Errors:          errs,
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
