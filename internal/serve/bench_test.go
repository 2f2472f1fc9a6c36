package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"branchconf/internal/exp"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// paperFigures are the paper's nine evaluation artefacts, the daemon's
// figure mix.
var paperFigures = []string{"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11"}

// figureBodies returns the request bodies of the nine figures at the
// benchmarks' budget, one figure each.
func figureBodies(b *testing.B) [][]byte {
	bodies := make([][]byte, len(paperFigures))
	for i, id := range paperFigures {
		body, err := json.Marshal(ReportRequest{Branches: 50000, Only: []string{id}})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// postFigures posts each body once, in order, and requires every reply to
// be built, not read from the rendered-report cache.
func postFigures(b *testing.B, h http.Handler, bodies [][]byte) {
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Report-Cache") != "miss" {
			b.Fatalf("%s: HTTP %d, X-Report-Cache %q: %s", body, rec.Code, rec.Header().Get("X-Report-Cache"), rec.Body.Bytes())
		}
	}
}

// BenchmarkWarmFigureRequests times the warm request path in one process.
// Each op posts the nine figures, one request each with wall-time lines,
// so the rendered-report cache never answers and every request is served
// from the warm tiers. Requests go through the server's handler with no
// sockets, against one server warmed once. It gives a low-noise signal
// between perfbench runs; it does not replace them.
func BenchmarkWarmFigureRequests(b *testing.B) {
	srv := New(Config{Parallel: 2, MaxInflight: 4, MaxQueue: 16})
	defer srv.Close()
	h := srv.Handler()
	bodies := figureBodies(b)
	postFigures(b, h, bodies)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postFigures(b, h, bodies)
	}
}

// BenchmarkColdFigureRequests times a cold daemon's warm-up in one
// process. Each op drops every process-wide tier, starts a server with no
// store, and posts the nine figures once, in order, through its handler:
// the in-process shape of a freshly started daemon answering its first
// figure requests. Those requests build every pass, histogram, composite,
// curve and digest the figures need.
func BenchmarkColdFigureRequests(b *testing.B) {
	bodies := figureBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.TraceTier.Reset()
		sim.AnnotatedTier.Reset()
		sim.BucketTier.Reset()
		exp.ModelTier.Reset()
		exp.CurveTier.Reset()
		srv := New(Config{Parallel: 2, MaxInflight: 4, MaxQueue: 16})
		b.StartTimer()
		postFigures(b, srv.Handler(), bodies)
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}
