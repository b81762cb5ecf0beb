package resultstore

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain doubles as the lock-holder helper process: when the environment
// variable below names a store directory, the process acquires the store's
// advisory lock, reports readiness on stdout, and hangs until killed —
// simulating a crashed holder for TestStaleLockDeadHolderTakeover.
func TestMain(m *testing.M) {
	if dir := os.Getenv("RESULTSTORE_HOLD_LOCK_DIR"); dir != "" {
		holdLock(dir)
		return
	}
	os.Exit(m.Run())
}

// holdLock is the helper-process body: take the lock, say so, never let go.
func holdLock(dir string) {
	s := &Store{dir: dir, logf: func(string, ...interface{}) {}}
	if _, err := s.lock(); err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Println("LOCKED")
	select {} // hang until SIGKILL
}

// startDeadLockHolder spawns the helper, waits for it to hold dir's lock,
// then SIGKILLs it — leaving a fresh-mtime lock file whose owner is gone.
func startDeadLockHolder(t *testing.T, dir string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "RESULTSTORE_HOLD_LOCK_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := out.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "LOCKED") {
		cmd.Process.Kill()
		t.Fatalf("lock holder did not report LOCKED: %q, %v", buf[:n], err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if _, err := os.Stat(filepath.Join(dir, "lock")); err != nil {
		t.Fatalf("killed holder left no lock file: %v", err)
	}
}

// TestStaleLockDeadHolderTakeover is the crashed-lock-holder regression
// test: a SIGKILLed process leaves the advisory lock behind with a fresh
// mtime, and every subsequent store operation used to stall the full
// 10-second mtime-staleness window (per lock acquisition!) before stealing
// it. PID liveness must detect the dead holder and take the lock over
// immediately, logging the takeover.
func TestStaleLockDeadHolderTakeover(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		t.Fatal(err)
	}
	startDeadLockHolder(t, dir)

	var logMu sync.Mutex
	var logged []string
	opts := Options{Logf: func(format string, args ...interface{}) {
		logMu.Lock()
		defer logMu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}}

	start := time.Now()
	s, err := Open(dir, opts) // Open reconciles, which needs the lock
	if err != nil {
		t.Fatalf("Open after dead holder: %v", err)
	}
	key, err := s.Key("kind", Material{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes(key, "kind", "bin", []byte("payload")); err != nil {
		t.Fatalf("PutBytes after dead holder: %v", err)
	}
	// The mtime window alone is 10s per lock acquisition; PID liveness must
	// recover far faster than a single window.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("recovery from dead lock holder took %v, want well under the 10s mtime window", elapsed)
	}

	logMu.Lock()
	defer logMu.Unlock()
	found := false
	for _, line := range logged {
		if strings.Contains(line, "stale lock") && strings.Contains(line, "dead") {
			found = true
		}
	}
	if !found {
		t.Fatalf("takeover was not logged; log lines: %q", logged)
	}

	if _, hit, err := getBytes(s, key); err != nil || !hit {
		t.Fatalf("record written after takeover not readable: hit=%v err=%v", hit, err)
	}
}

// TestStaleLockLiveHolderIsRespected pins the other side: a lock whose
// holder is alive (this process) and whose mtime is fresh must NOT be
// stolen.
func TestStaleLockLiveHolderIsRespected(t *testing.T) {
	dir := t.TempDir()
	s := &Store{dir: dir, logf: func(string, ...interface{}) {}}
	unlock, err := s.lock()
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	if reason, stale := staleLock(s.lockPath()); stale {
		t.Fatalf("live holder's lock reported stale: %s", reason)
	}
}

// TestParseLockToken pins the token wire format, including rejection of
// malformed and legacy three-field tokens (those fall back to mtime).
func TestParseLockToken(t *testing.T) {
	host, _ := os.Hostname()
	pid, gotHost, ok := parseLockToken(fmt.Sprintf("%d-7-123456789-%s\n", os.Getpid(), host))
	if !ok || pid != os.Getpid() || gotHost != host {
		t.Fatalf("parseLockToken = (%d, %q, %v)", pid, gotHost, ok)
	}
	for _, bad := range []string{"", "\n", "1-2-3\n", "x-2-3-host\n", "-1-2-3-host\n", "0-2-3-host\n"} {
		if _, _, ok := parseLockToken(bad); ok {
			t.Errorf("parseLockToken(%q) accepted", bad)
		}
	}
}
