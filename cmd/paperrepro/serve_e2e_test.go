package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"branchconf/internal/serve"
)

// syncBuffer lets the test read the daemon's stderr while serveMain is
// still writing to it from its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`paperrepro serve: listening on (\S+)`)

// TestDaemonEndToEnd is the service-mode acceptance test in one sequential
// flow: boot the daemon on an ephemeral port, prove the daemon's report is
// byte-identical to the one-shot CLI's, prove a repeat is served from the
// rendered-report cache, fetch stats through the client, then SIGTERM the
// process and assert a clean drain. One test on purpose — a second daemon
// would race the shared signal.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and runs reports twice")
	}

	daemonErr := make(chan error, 1)
	var daemonOut, daemonLog syncBuffer
	go func() {
		daemonErr <- serveMain(
			[]string{"-listen", "127.0.0.1:0", "-parallel", "2", "-drain-timeout", "60s"},
			&daemonOut, &daemonLog)
	}()

	var addr string
	for deadline := time.Now().Add(15 * time.Second); addr == ""; {
		if m := listenLine.FindStringSubmatch(daemonLog.String()); m != nil {
			addr = "http://" + m[1]
			break
		}
		select {
		case err := <-daemonErr:
			t.Fatalf("daemon exited before listening: %v\nstderr:\n%s", err, daemonLog.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", daemonLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	flags := []string{"-no-timings", "-branches", "30000", "-only", "fig2,table1"}

	// The ground truth: the one-shot CLI's deterministic bytes.
	var oneShot, oneShotLog strings.Builder
	if err := appMain(append([]string{"-parallel", "2"}, flags...), &oneShot, &oneShotLog); err != nil {
		t.Fatalf("one-shot run: %v", err)
	}

	// Cold leg through the daemon.
	var cold, coldLog strings.Builder
	if err := clientMain(append([]string{"-addr", addr}, flags...), &cold, &coldLog); err != nil {
		t.Fatalf("client cold run: %v\nstderr:\n%s", err, coldLog.String())
	}
	if cold.String() != oneShot.String() {
		t.Fatalf("daemon-served report differs from the one-shot CLI's bytes\ndaemon %d bytes, one-shot %d bytes", cold.Len(), oneShot.Len())
	}
	if strings.Contains(coldLog.String(), "report cache") {
		t.Fatal("cold request claimed a report-cache hit")
	}

	// Warm leg: byte-identical again, and announced as a cache hit.
	var warm, warmLog strings.Builder
	if err := clientMain(append([]string{"-addr", addr}, flags...), &warm, &warmLog); err != nil {
		t.Fatalf("client warm run: %v", err)
	}
	if warm.String() != cold.String() {
		t.Fatal("warm report bytes diverged from the cold leg")
	}
	if !strings.Contains(warmLog.String(), "served from the daemon's report cache") {
		t.Fatalf("warm request not served from the report cache:\n%s", warmLog.String())
	}

	// The client's stats path writes the daemon's snapshot through -o.
	var statsOut, statsLog strings.Builder
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	if err := clientMain([]string{"-addr", addr, "-stats", "-o", statsPath}, &statsOut, &statsLog); err != nil {
		t.Fatalf("client -stats: %v", err)
	}
	if statsOut.Len() != 0 {
		t.Fatalf("client -stats -o also wrote to stdout:\n%s", statsOut.String())
	}
	statsJSON, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("client -stats -o: %v", err)
	}
	var snap serve.CacheStatsJSON
	if err := json.Unmarshal(statsJSON, &snap); err != nil {
		t.Fatalf("stats did not decode: %v\n%s", err, statsJSON)
	}
	if snap.Server == nil || snap.Server.RequestsOK != 2 {
		t.Fatalf("daemon stats = %+v, want a server section with 2 ok requests", snap.Server)
	}
	if snap.Server.ReportCacheHits != 1 || snap.Server.ReportCacheMisses != 1 {
		t.Fatalf("report cache counters = %d/%d hits/misses, want 1/1",
			snap.Server.ReportCacheHits, snap.Server.ReportCacheMisses)
	}

	// Graceful shutdown: SIGTERM drains and serveMain returns nil.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("daemon exit: %v\nstderr:\n%s", err, daemonLog.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not drain within 60s:\n%s", daemonLog.String())
	}
	log := daemonLog.String()
	if !strings.Contains(log, "draining") || !strings.Contains(log, "drained cleanly") {
		t.Fatalf("drain messages missing from daemon stderr:\n%s", log)
	}

	// A post-drain client call must fail: nothing is listening.
	var afterOut, afterLog strings.Builder
	if err := clientMain([]string{"-addr", addr, "-ready", "-timeout", "2s"}, &afterOut, &afterLog); err == nil {
		t.Fatal("readiness probe succeeded after the daemon exited")
	}
}
