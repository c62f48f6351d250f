// Command laserd serves the LASER monitoring stack as a long-lived
// HTTP/JSON daemon: many concurrent detection sessions, driven remotely
// with step/run/pause, snapshotted and re-thresholded mid-run, and
// followed over SSE with resumable sequence numbers. Admission control
// (bounded session and simulation-worker pools answering 429 past
// their caps), per-session cycle budgets, and an idle-TTL reaper keep a
// shared host bounded under abusive or abandoned clients.
//
// Usage:
//
//	laserd [-addr :8347] [-max-sessions N] [-workers N]
//	       [-max-pending-runs N] [-idle-ttl D] [-max-session-cycles N]
//	       [-max-event-backlog N] [-state-dir DIR]
//	       [-checkpoint-events N] [-checkpoint-cycles N]
//
// With -state-dir the daemon is crash-safe: every session journals its
// attach request, event frames and periodic whole-machine checkpoints
// there, and a restarted daemon re-attaches every journaled session
// from its latest valid checkpoint — resuming runs that were executing
// and letting SSE clients continue with Last-Event-ID across the
// restart. Journals that cannot be restored are quarantined under
// <state-dir>/quarantine with a REASON file rather than failing boot.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight HTTP
// requests finish, running sessions park (checkpointed first when
// durable), and every session detaches.
//
// LASER_FAULT_PLAN arms the deterministic fault-injection plan (see
// internal/faultinject) — the chaos-restart CI job uses it to fail
// journal writes and corrupt checkpoint reads on cue.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serverd"
	"repro/internal/statestore"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session cap (0 = default 256)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	maxPending := flag.Int("max-pending-runs", 0, "admitted-but-unfinished run cap (0 = 4x workers)")
	idleTTL := flag.Duration("idle-ttl", 0, "idle session reap TTL (0 = default 2m)")
	maxCycles := flag.Uint64("max-session-cycles", 0, "per-session simulated-cycle budget (0 = default 200M)")
	maxBacklog := flag.Int("max-event-backlog", 0, "per-session retained event frame cap (0 = default 65536)")
	stateDir := flag.String("state-dir", "", "session journal directory; empty disables durability")
	ckptEvents := flag.Int("checkpoint-events", 0, "checkpoint cadence in emitted events (0 = default 256)")
	ckptCycles := flag.Uint64("checkpoint-cycles", 0, "checkpoint cadence in simulated cycles (0 = default 25M)")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("laserd: unexpected argument %q: laserd takes flags only", flag.Arg(0))
	}

	if spec := os.Getenv("LASER_FAULT_PLAN"); spec != "" {
		plan, err := faultinject.Parse(spec)
		if err != nil {
			log.Fatalf("laserd: %v", err)
		}
		faultinject.Enable(plan)
		log.Printf("laserd: fault plan armed: %s", plan)
	}

	srv, err := serverd.New(serverd.Config{
		MaxSessions:      *maxSessions,
		Workers:          *workers,
		MaxPendingRuns:   *maxPending,
		IdleTTL:          *idleTTL,
		MaxSessionCycles: *maxCycles,
		MaxEventBacklog:  *maxBacklog,
		StateDir:         *stateDir,
		CheckpointEvents: *ckptEvents,
		CheckpointCycles: *ckptCycles,
	})
	if err != nil {
		log.Fatalf("laserd: %v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("laserd: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("laserd: shutdown: %v", err)
		}
	}()

	log.Printf("laserd %s listening on %s", statestore.CodeVersion(), *addr)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("laserd: %v", err)
	}
	<-done
	srv.Close()
	log.Printf("laserd: all sessions detached, bye")
}
