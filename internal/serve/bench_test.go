package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// paperFigures are the paper's nine evaluation artefacts, the daemon's
// figure mix.
var paperFigures = []string{"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11"}

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
	bodies := make([][]byte, len(paperFigures))
	for i, id := range paperFigures {
		body, err := json.Marshal(ReportRequest{Branches: 50000, Only: []string{id}})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	round := func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Report-Cache") != "miss" {
				b.Fatalf("%s: HTTP %d, X-Report-Cache %q: %s", body, rec.Code, rec.Header().Get("X-Report-Cache"), rec.Body.Bytes())
			}
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
