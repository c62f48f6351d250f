package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as a fake laserd: with fakeDaemonEnv set it
// serves /healthz and /version on -addr instead of running the tests,
// after writing "<pid> <state dir>" to the file fakePIDFileEnv names.
// A value of "unhealthy" makes /healthz answer 503 forever.
const (
	fakeDaemonEnv  = "LASERLOAD_FAKE_DAEMON"
	fakePIDFileEnv = "LASERLOAD_FAKE_PIDFILE"
)

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeDaemonEnv); mode != "" {
		fakeDaemon(mode, os.Args[1:])
		return
	}
	os.Exit(m.Run())
}

func fakeDaemon(mode string, args []string) {
	fs := flag.NewFlagSet("laserd", flag.ExitOnError)
	addr := fs.String("addr", "", "")
	stateDir := fs.String("state-dir", "", "")
	fs.Int("checkpoint-events", 0, "")
	fs.Parse(args)
	record := fmt.Sprintf("%d %s", os.Getpid(), *stateDir)
	if err := os.WriteFile(os.Getenv(fakePIDFileEnv), []byte(record), 0o644); err != nil {
		os.Exit(3)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if mode == "unhealthy" {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"code_version": "fake", "max_session_cycles": uint64(1) << 40})
	})
	http.ListenAndServe(*addr, mux)
	os.Exit(4)
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// runWithFake runs laserload against a fake daemon in the given mode
// and returns its exit status plus the fake's pid and state dir.
func runWithFake(t *testing.T, mode string, args ...string) (code, pid int, stateDir string) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "fake.pid")
	t.Setenv(fakeDaemonEnv, mode)
	t.Setenv(fakePIDFileEnv, pidFile)
	args = append([]string{"-daemon", self, "-daemon-addr", freeAddr(t),
		"-out", filepath.Join(t.TempDir(), "out.json")}, args...)
	code = run(args)
	record, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("fake daemon never started: %v", err)
	}
	pidText, stateDir, _ := strings.Cut(string(record), " ")
	if pid, err = strconv.Atoi(pidText); err != nil {
		t.Fatalf("pid file %q: %v", record, err)
	}
	return code, pid, stateDir
}

// assertGone fails unless process pid no longer exists — laserload
// must have stopped and reaped it, not left it re-parented to init.
func assertGone(t *testing.T, pid int) {
	t.Helper()
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Fatalf("spawned daemon %d still exists after run returned (kill -0: %v)", pid, err)
	}
}

// A failed run — here an invalid -sav the reference sessions refuse —
// stops the daemon it spawned and removes its temporary state dir.
func TestFailedRunStopsSpawnedDaemon(t *testing.T) {
	code, pid, stateDir := runWithFake(t, "ok", "-sav", "0", "-seeds", "1", "-sessions", "1")
	if code != 1 {
		t.Errorf("run = %d, want 1", code)
	}
	assertGone(t, pid)
	if _, err := os.Stat(stateDir); !os.IsNotExist(err) {
		t.Errorf("temporary state dir %s left behind (stat: %v)", stateDir, err)
	}
}

// A daemon that never becomes healthy is killed and reaped before
// start gives up.
func TestUnhealthyDaemonKilled(t *testing.T) {
	defer func(d time.Duration) { daemonHealthWait = d }(daemonHealthWait)
	daemonHealthWait = 300 * time.Millisecond
	code, pid, _ := runWithFake(t, "unhealthy", "-state-dir", t.TempDir())
	if code != 1 {
		t.Errorf("run = %d, want 1", code)
	}
	assertGone(t, pid)
}
