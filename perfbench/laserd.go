package main

// laserd workloads: the benchmark spawns the real daemon and drives it
// with closed-loop clients over HTTP/JSON and SSE. Each client attaches
// an uploaded contention image, runs it, follows the event stream to its
// eof frame, byte-compares the stream against an in-process reference
// session built from the identical attach request, and deletes the
// session. The durable variant journals to a state directory and boots
// by recovering sessions from it, so set-up time includes recovery.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serverd"
	"repro/laser"
)

const (
	// clients is the closed-loop client count. laserd admits four pending
	// runs per worker (its default cap, 8 here), and a run still counts
	// as pending for a moment after its eof frame reaches the client, so
	// one client can hold two. Four clients stay under the cap; eight met
	// 429s. A rejected client waits out Retry-After (whole seconds), and
	// session time would measure that back-off rather than the daemon.
	clients = 2 * daemonWorkers
	// daemonWorkers is laserd's simulation worker pool: its default,
	// GOMAXPROCS, on the two-processor reference host, fixed so the
	// workload does not change with the host.
	daemonWorkers = 2
	// bootsPerPhase is how many times each of a run's two set-up phases
	// boots the daemon.
	bootsPerPhase = 40
	// recoverSessions is how many idle sessions the durable daemon's
	// journal holds at each timed boot.
	recoverSessions = 8
	// refSeeds is how many distinct session seeds (and reference
	// streams) one run draws from, as laserload's default.
	refSeeds = 8
	// sessionCycles caps every session, as laserload's clientMaxCycles;
	// the references run under the same cap.
	sessionCycles = 50_000_000
)

// attachRequest is the body every client sends for a session seed:
// laserload's request at its defaults (the traffic of the laserd-load
// and laserd-crash CI jobs) — two threads incrementing adjacent 8-byte
// slots of one cache line, 20k iterations, SAV 2, a poll every 5k
// cycles, and rate threshold 0 so the report keeps every contended line.
func attachRequest(seed int64) serverd.AttachRequest {
	maxCycles := uint64(sessionCycles)
	poll := uint64(5_000)
	sav := 2
	threshold := 0.0
	return serverd.AttachRequest{
		Custom: &serverd.CustomImage{Threads: 2, Iters: 20_000, Stride: 8, Alus: 2},
		Options: serverd.AttachOptions{
			Seed:          &seed,
			SAV:           &sav,
			PollInterval:  &poll,
			MaxCycles:     &maxCycles,
			RateThreshold: &threshold,
		},
	}
}

// reference is the expected outcome of one session seed.
type reference struct {
	stream   []byte
	instr    uint64
	polls    int
	events   int
	records  uint64
	repaired bool
	trials   int
}

// referenceRun runs the request in-process exactly as laserd attaches it.
func referenceRun(req serverd.AttachRequest) (*reference, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var evs []laser.Event
	opts, _ := req.SessionOptions(sessionCycles)
	opts = append(opts, laser.WithObserver(func(e laser.Event) { evs = append(evs, e) }))
	s, err := laser.Attach(req.BuildImage(), opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ref := &reference{}
	for {
		done, err := s.Step()
		ref.polls++
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	ref.stream = serverd.EncodeStream(evs)
	ref.instr = res.Stats.Instructions
	ref.events = len(evs)
	ref.records = res.PEBSStats.Records
	ref.repaired = res.RepairApplied
	ref.trials = len(res.RepairTrials)
	return ref, nil
}

// daemon is one spawned laserd process at a time, across restarts.
type daemon struct {
	bin      string
	addr     string
	url      string
	stateDir string // empty: in-memory
	logPath  string

	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once the running process is reaped
}

// start spawns the daemon and returns how long it took to answer
// /healthz, which a durable daemon does only after recovery.
func (d *daemon) start(ctx context.Context) (time.Duration, error) {
	args := []string{"-addr", d.addr, "-workers", strconv.Itoa(daemonWorkers)}
	if d.stateDir != "" {
		args = append(args, "-state-dir", d.stateDir)
	}
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return 0, fmt.Errorf("spawn laserd: %w", err)
	}
	d.cmd, d.log, d.exited = cmd, logf, make(chan struct{})
	go func(exited chan struct{}) {
		cmd.Wait()
		close(exited)
	}(d.exited)

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			d.kill()
			return 0, fmt.Errorf("laserd exited during boot (see %s)", d.logPath)
		case <-ctx.Done():
			d.kill()
			return 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return 0, errors.New("laserd not healthy after 30s")
		}
	}
}

// kill is a crash: SIGKILL, then reap.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	d.reap()
}

// stop is a graceful shutdown, forced after a grace period.
func (d *daemon) stop() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
	}
	d.reap()
}

// reap waits for the signalled process to be gone.
func (d *daemon) reap() {
	<-d.exited
	d.log.Close()
	d.cmd = nil
}

// freeAddr picks a loopback port nobody is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// client talks to one daemon. Session k of a run attaches with
// seeds[k] and must stream refs[k].
type client struct {
	url   string
	http  *http.Client
	seeds []int64
	refs  []*reference
	tr    *tracer
}

// post sends body as JSON and decodes a 2xx reply into out.
func (c *client) post(ctx context.Context, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

// attach creates a session for seed k and returns its id.
func (c *client) attach(ctx context.Context, k int, span int64) (string, error) {
	t0 := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	err := c.post(ctx, "/sessions", attachRequest(c.seeds[k]), &created)
	c.tr.record("attach", "session", span, t0, time.Now())
	return created.ID, err
}

// drive runs an attached session to completion, checks its stream
// against reference k and deletes it.
func (c *client) drive(ctx context.Context, id string, k int, span int64) (samples, error) {
	t0 := time.Now()
	if err := c.post(ctx, "/sessions/"+id+"/run", nil, nil); err != nil {
		return nil, err
	}
	t1 := time.Now()
	c.tr.record("run", "session", span, t0, t1)
	stream, delivery, first, err := c.stream(ctx, id)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	c.tr.record("first_event", "session", span, t1, first)
	c.tr.record("stream", "session", span, t1, t2)
	if !bytes.Equal(stream, c.refs[k].stream) {
		return nil, fmt.Errorf("session %s: event stream differs from the reference (%d bytes, want %d)",
			id, len(stream), len(c.refs[k].stream))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url+"/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	if err := c.do(req, nil); err != nil {
		return nil, err
	}
	c.tr.record("delete", "session", span, t2, time.Now())
	return delivery, nil
}

// stream follows the session's SSE stream to its eof frame and returns
// the canonical bytes (timestamp comments stripped), the delivery
// latency of every frame, and when the first frame arrived.
func (c *client) stream(ctx context.Context, id string) ([]byte, samples, time.Time, error) {
	var first time.Time
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/sessions/"+id+"/events?ts=1", nil)
	if err != nil {
		return nil, nil, first, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, first, fmt.Errorf("GET events: %d", resp.StatusCode)
	}
	var canonical bytes.Buffer
	var delivery samples
	var stamp int64
	eof := false
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, nil, first, fmt.Errorf("stream ended before eof: %w", err)
		}
		if strings.HasPrefix(line, ": t=") {
			stamp, _ = strconv.ParseInt(strings.TrimSpace(line[4:]), 10, 64)
			continue
		}
		canonical.WriteString(line)
		if line == "event: eof\n" {
			eof = true
		}
		if line != "\n" {
			continue
		}
		// A blank line completes a frame.
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		if stamp != 0 {
			delivery = append(delivery, time.Duration(now.UnixNano()-stamp))
			stamp = 0
		}
		if eof {
			// Read the response to its end so the connection returns to
			// the pool: closed unread, it is torn down, and the next
			// request waits for a new one.
			io.Copy(io.Discard, br)
			return canonical.Bytes(), delivery, first, nil
		}
	}
}

// scrape reads the named counters and gauges from /metrics; absent
// names read 0.
func (c *client) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// checkRecovered checks that a freshly booted durable daemon recovered
// every journaled session, quarantined none, and failed no journal read
// or write.
func (c *client) checkRecovered(ctx context.Context) error {
	var health struct {
		Recovered   uint64 `json:"sessions_recovered"`
		Quarantined uint64 `json:"sessions_quarantined"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/healthz", nil)
	if err != nil {
		return err
	}
	if err := c.do(req, &health); err != nil {
		return err
	}
	if health.Recovered != recoverSessions || health.Quarantined != 0 {
		return fmt.Errorf("daemon recovered %d and quarantined %d sessions, journaled %d",
			health.Recovered, health.Quarantined, recoverSessions)
	}
	m, err := c.scrape(ctx, "laserd_checkpoint_errors_total")
	if err != nil {
		return err
	}
	if n := m["laserd_checkpoint_errors_total"]; n != 0 {
		return fmt.Errorf("%v journal errors during recovery", n)
	}
	return nil
}

// bootPhase boots the daemon bootsPerPhase times, timing each boot as
// set-up, and leaves the last boot serving. A durable phase first
// journals recoverSessions idle sessions and crashes, and every boot
// ends in a crash, so each timed boot recovers the same sessions; after
// the last one their streams must still match the references.
func (c *client) bootPhase(ctx context.Context, r *run, d *daemon, durable bool) error {
	var pending []string
	var pendingSeed []int
	if durable {
		if d.cmd == nil {
			if _, err := d.start(ctx); err != nil {
				return err
			}
		}
		for i := 0; i < recoverSessions; i++ {
			k := r.rng.Intn(refSeeds)
			id, err := c.attach(ctx, k, -1)
			if err != nil {
				return fmt.Errorf("attach before crash: %w", err)
			}
			pending, pendingSeed = append(pending, id), append(pendingSeed, k)
		}
	}
	for b := 0; b < bootsPerPhase; b++ {
		if durable {
			d.kill()
		} else {
			d.stop()
		}
		c.http.CloseIdleConnections()
		if b == 0 && durable {
			// Write the journal back to disk now, so no boot waits on it.
			if err := syncTree(d.stateDir); err != nil {
				return err
			}
		}
		boot, err := d.start(ctx)
		if err != nil {
			return err
		}
		r.setup = append(r.setup, boot)
		if durable {
			// Untimed: the boot must have recovered every journaled session.
			r.attempted++
			if err := c.checkRecovered(ctx); err != nil {
				r.fail("boot %d: %v", b, err)
			}
		}
	}
	for i, id := range pending {
		if _, err := c.drive(ctx, id, pendingSeed[i], -1); err != nil {
			return fmt.Errorf("recovered session: %w", err)
		}
	}
	return nil
}

// syncTree flushes every file and directory under root to disk.
func syncTree(root string) error {
	return filepath.WalkDir(root, func(path string, _ os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// runLaserd is the laserd workload, durable or in-memory.
func runLaserd(ctx context.Context, r *run, durable bool) error {
	dir, err := os.MkdirTemp(r.workDir, "laserd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	d := &daemon{
		bin:     filepath.Join(r.binDir, "laserd"),
		addr:    addr,
		url:     "http://" + addr,
		logPath: filepath.Join(dir, "laserd.log"),
	}
	if durable {
		d.stateDir = filepath.Join(dir, "state")
	}
	defer d.stop()

	seeds := make([]int64, refSeeds)
	refs := make([]*reference, refSeeds)
	for i := range seeds {
		seeds[i] = r.rng.Int63()
		ref, err := referenceRun(attachRequest(seeds[i]))
		if err != nil {
			return fmt.Errorf("reference session: %w", err)
		}
		refs[i] = ref
	}
	c := &client{
		url:   d.url,
		seeds: seeds,
		refs:  refs,
		tr:    r.tr,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
	}
	defer c.http.CloseIdleConnections()

	// Set-up: the daemon's boots, half before the window and half after
	// it, so the median samples the host at two moments.
	if err := c.bootPhase(ctx, r, d, durable); err != nil {
		return err
	}

	ckptNames := []string{"laserd_checkpoints_total", "laserd_checkpoint_bytes_total", "laserd_checkpoint_errors_total"}
	before, err := c.scrape(ctx, ckptNames...)
	if err != nil {
		return err
	}

	// The closed loop: untimed and unrecorded (span -1) until start, then
	// measured until deadline.
	var mu sync.Mutex
	var delivery, ckptWrite samples
	var done []int // reference index of each completed session
	var nextSpan int64
	start := time.Now().Add(warmup)
	deadline := start.Add(r.window)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(r.seed*clients + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := rng.Intn(refSeeds)
				t0 := time.Now()
				measured := !t0.Before(start)
				mu.Lock()
				span := int64(-1)
				if measured {
					span = nextSpan
					nextSpan++
				}
				r.attempted++
				mu.Unlock()
				id, err := c.attach(ctx, k, span)
				var dl samples
				if err == nil {
					dl, err = c.drive(ctx, id, k, span)
				}
				end := time.Now()
				var gauge map[string]float64
				if err == nil && measured && r.tr.on {
					gauge, err = c.scrape(ctx, "laserd_checkpoint_write_ns")
				}
				mu.Lock()
				switch {
				case err != nil:
					r.fail("session %d: %v", span, err)
				case !measured:
					done = append(done, k)
				default:
					r.tr.record("session", "", span, t0, end)
					r.sessions = append(r.sessions, end.Sub(t0))
					r.instr += refs[k].instr
					delivery = append(delivery, dl...)
					done = append(done, k)
					if v, ok := gauge["laserd_checkpoint_write_ns"]; ok && durable {
						ckptWrite = append(ckptWrite, time.Duration(v))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := c.scrape(ctx, ckptNames...)
	if err != nil {
		return err
	}
	// laserd turns a failed checkpoint write into a non-durable session
	// without failing the request; the benchmark counts it as a failure.
	if n := after[ckptNames[2]] - before[ckptNames[2]]; n != 0 {
		r.fail("%v checkpoint writes failed during the window", n)
	}

	if err := c.bootPhase(ctx, r, d, durable); err != nil {
		return err
	}

	if r.tr.on && len(done) > 0 {
		n := float64(len(done))
		r.layer["attach_ms"] = ms(r.tr.durations("attach").median())
		r.layer["run_ms"] = ms(r.tr.durations("run").median())
		r.layer["first_event_ms"] = ms(r.tr.durations("first_event").median())
		r.layer["stream_ms"] = ms(r.tr.durations("stream").median())
		r.layer["delete_ms"] = ms(r.tr.durations("delete").median())
		r.layer["event_delivery_us"] = us(delivery.median())
		r.layer["checkpoint_write_us"] = us(ckptWrite.median())
		r.layer["checkpoints_per_session"] = (after[ckptNames[0]] - before[ckptNames[0]]) / n
		r.layer["checkpoint_kib_per_session"] = (after[ckptNames[1]] - before[ckptNames[1]]) / 1024 / n
		var polls, events, instr, records, repairs, trials float64
		for _, k := range done {
			ref := refs[k]
			polls += float64(ref.polls)
			events += float64(ref.events)
			instr += float64(ref.instr)
			records += float64(ref.records)
			trials += float64(ref.trials)
			if ref.repaired {
				repairs++
			}
		}
		r.layer["polls_per_session"] = polls / n
		r.layer["events_per_session"] = events / n
		r.layer["instr_per_session"] = instr / n
		r.layer["pebs_records_per_session"] = records / n
		r.layer["repairs_per_session"] = repairs / n
		r.layer["trials_per_session"] = trials / n
	}
	return nil
}
