package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"branchconf/internal/exp"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// newTestServer builds a server with small bounds suitable for unit tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Parallel == 0 {
		cfg.Parallel = 2
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 16
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postReport(t *testing.T, base string, req ReportRequest) ([]byte, bool, error) {
	t.Helper()
	c := &Client{Base: base}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return c.Report(ctx, req)
}

// TestServerReportMatchesBuildReport pins the tentpole identity: bytes
// served by the daemon equal serve.BuildReport against a private session —
// the same function the one-shot CLI renders through.
func TestServerReportMatchesBuildReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ReportRequest{Branches: 20000, Only: []string{"fig2", "table1"}, NoTimings: true}

	got, cached, err := postReport(t, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request reported a report-cache hit")
	}
	want, err := BuildReport(exp.NewSession(exp.Config{Branches: 20000}), req, BuildOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon-served report differs from BuildReport:\ndaemon: %q...\nlocal:  %q...", truncate(got), truncate(want))
	}

	// The repeat must be served from the rendered-report cache, byte-equal.
	again, cached, err := postReport(t, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("repeat request missed the report cache")
	}
	if !bytes.Equal(again, got) {
		t.Fatal("cached report bytes diverged")
	}
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// TestServerCoalescesConcurrentRequests: identical timing-free requests
// arriving together must coalesce onto one build — every response
// byte-identical, exactly one report-cache miss.
func TestServerCoalescesConcurrentRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := ReportRequest{Branches: 15000, Only: []string{"fig2"}, NoTimings: true}

	const clients = 8
	responses := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[g], _, errs[g] = postReport(t, ts.URL, req)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	for g := 1; g < clients; g++ {
		if !bytes.Equal(responses[g], responses[0]) {
			t.Fatalf("client %d got different bytes", g)
		}
	}
	if misses := srv.reports.Stats().Misses; misses != 1 {
		t.Fatalf("report-cache misses = %d, want 1 (all clients coalesced)", misses)
	}
}

// TestServerTimingRequestsBypassCache: requests that want wall-time lines
// are never served from the rendered-report cache.
func TestServerTimingRequestsBypassCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := ReportRequest{Branches: 15000, Only: []string{"fig2"}}
	for i := 0; i < 2; i++ {
		if _, cached, err := postReport(t, ts.URL, req); err != nil {
			t.Fatal(err)
		} else if cached {
			t.Fatalf("request %d with timings served from the report cache", i)
		}
	}
	if hits := srv.reports.Stats().Hits; hits != 0 {
		t.Fatalf("report-cache hits = %d for timing requests, want 0", hits)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBranches: 50000})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(`{"only":["nonesuch"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown id: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"branches":100000}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("budget over cap: status %d, want 400", resp.StatusCode)
	}
	// An omitted budget runs at the benchmark default, 20x this cap.
	if resp := post(`{"only":["fig2"],"no_timings":true}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("default budget over cap: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"branches":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"nonsense_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET report: status %d, want 405", resp.StatusCode)
	}
}

// TestServerStatsEndpoint: the stats snapshot decodes, reports every
// engine tier plus the daemon's own counters, and moves with traffic.
func TestServerStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ReportRequest{Branches: 15000, Only: []string{"fig2"}, NoTimings: true}
	if _, _, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	}

	c := &Client{Base: ts.URL}
	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, tier := range snap.Tiers {
		names[tier.Name] = true
	}
	for _, want := range []string{"trace-memo", "annotated-stream", "bucket-stream", "model-stats", "curve", "artifact-disk", "stream-segment"} {
		if !names[want] {
			t.Errorf("stats missing tier %q", want)
		}
	}
	if snap.Server == nil {
		t.Fatal("stats missing the server section")
	}
	if snap.Server.RequestsTotal != 2 || snap.Server.RequestsOK != 2 {
		t.Errorf("server counters = %+v, want 2 total / 2 ok", snap.Server)
	}
	if snap.Server.ReportCacheHits != 1 || snap.Server.ReportCacheMisses != 1 {
		t.Errorf("report cache counters = %d hits / %d misses, want 1/1",
			snap.Server.ReportCacheHits, snap.Server.ReportCacheMisses)
	}
	if snap.SessionPass.Misses == 0 {
		t.Error("session-pass tier never missed despite a live build")
	}
}

// TestServerSharesPassesAcrossTraceFiles: every request's session shares
// one pass cache keyed by what a pass depends on, so two fig2 requests that
// differ only in trace_file, which no suite pass reads, share every pass:
// the second adds no session-pass miss.
func TestServerSharesPassesAcrossTraceFiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := &Client{Base: ts.URL}
	passMisses := func() uint64 {
		t.Helper()
		snap, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return snap.SessionPass.Misses
	}
	req := ReportRequest{Branches: 14000, Only: []string{"fig2"}, NoTimings: true}
	if _, _, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	}
	before := passMisses()
	if before == 0 {
		t.Fatal("the first request simulated no pass")
	}

	req.TraceFile = filepath.Join(t.TempDir(), "recorded.champsim")
	src, err := workload.Suite()[0].FiniteSource(2000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(req.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewChampSimWriter(f).WriteAll(src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Fatal("a request naming a trace file was served the report cached without one")
	}
	if after := passMisses(); after != before {
		t.Fatalf("session-pass misses %d -> %d: a trace file no pass reads split the passes", before, after)
	}
}

// TestServerDrainLifecycle: draining flips readiness, sheds new report
// work with 503, keeps liveness and stats observable, and Drain returns
// once in-flight work completes.
func TestServerDrainLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain: %d, want 200", code)
	}
	if code := get("/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats after drain: %d, want 200", code)
	}
	_, _, err := postReport(t, ts.URL, ReportRequest{Branches: 15000, Only: []string{"fig2"}})
	var se *StatusError
	if err == nil {
		t.Fatal("report accepted while draining")
	} else if !asStatus(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("report while draining: %v, want 503", err)
	}
}

func asStatus(err error, out **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*out = se
	}
	return ok
}

// TestServerAdmissionSheds: with one slot, no queue, and a long build in
// flight, a second distinct build must shed with 429 while a cached
// report still serves.
func TestServerAdmissionSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: -1, QueueTimeout: time.Millisecond})
	// MaxQueue -1 clamps to 0: no waiting room at all.

	warm := ReportRequest{Branches: 12000, Only: []string{"fig2"}, NoTimings: true}
	if _, _, err := postReport(t, ts.URL, warm); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot.
	release, err := srv.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// A fresh build has nowhere to go: 429.
	_, _, err = postReport(t, ts.URL, ReportRequest{Branches: 13000, Only: []string{"fig2"}, NoTimings: true})
	var se *StatusError
	if err == nil || !asStatus(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("fresh build with a full server: %v, want 429", err)
	}

	// The warm report is served from cache without touching admission.
	if _, cached, err := postReport(t, ts.URL, warm); err != nil || !cached {
		t.Fatalf("warm report during saturation: cached=%t err=%v", cached, err)
	}
}

// TestServerStatsJSONShape guards the satellite contract: the one-shot
// CLI's -cache-stats-json and the daemon's stats endpoint share one
// encoder, so the tier rows decode identically.
func TestServerStatsJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCacheStatsJSON(&buf, SnapshotCacheStats(3, 4, false)); err != nil {
		t.Fatal(err)
	}
	var snap CacheStatsJSON
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if snap.SessionPass.Hits != 3 || snap.SessionPass.Misses != 4 {
		t.Fatalf("session-pass = %+v", snap.SessionPass)
	}
	if len(snap.Tiers) != 8 {
		t.Fatalf("tiers = %d, want 8", len(snap.Tiers))
	}
	if snap.Tiers[7].Name != "remote-artifact" {
		t.Fatalf("tier 8 = %q, want remote-artifact (tiers append, never reorder)", snap.Tiers[7].Name)
	}
	if snap.Server != nil {
		t.Fatal("one-shot snapshot grew a server section")
	}
	if !strings.Contains(buf.String(), `"resident_bytes"`) {
		t.Fatal("snake_case field names missing")
	}
}

// TestServerMemoryPressureJanitor: a tiny soft limit must trigger the
// janitor, releasing the resident passes and cached reports, so the same
// request afterwards builds its report and simulates its passes again.
func TestServerMemoryPressureJanitor(t *testing.T) {
	srv, ts := newTestServer(t, Config{MemSoftLimitBytes: 1}) // always over
	req := ReportRequest{Branches: 12000, Only: []string{"fig2"}, NoTimings: true}
	if _, _, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	}
	_, misses := srv.passes.Stats()
	events := srv.pressureEvents.Load()
	deadline := time.Now().Add(10 * time.Second)
	for srv.pressureEvents.Load() == events {
		if time.Now().After(deadline) {
			t.Fatal("janitor never fired despite a 1-byte soft limit")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, cached, err := postReport(t, ts.URL, req); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Fatal("report served from the cache after pressure relief")
	}
	if _, after := srv.passes.Stats(); after <= misses {
		t.Fatalf("session-pass misses %d -> %d: passes survived pressure relief", misses, after)
	}
}
