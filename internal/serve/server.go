package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/memo"
)

// Config parameterises a resident confidence server.
type Config struct {
	// Parallel bounds concurrent experiments within one report request.
	Parallel int
	// PassCacheBytes bounds the resident pass cache every request's
	// session shares, across all configurations (0 = unbounded).
	PassCacheBytes uint64
	// MaxInflight and MaxQueue shape the admission controller: at most
	// MaxInflight report requests execute at once, MaxQueue more wait.
	MaxInflight, MaxQueue int
	// QueueTimeout bounds each queued waiter (<=0: wait until a slot
	// frees, the client gives up, or the server drains).
	QueueTimeout time.Duration
	// MaxBranches caps the per-request branch budget (0 = uncapped).
	MaxBranches uint64
	// ReportCacheBytes bounds the retained deterministic (timing-free)
	// report bytes; 0 uses DefaultReportCacheBytes.
	ReportCacheBytes uint64
	// MemSoftLimitBytes, when non-zero, arms the memory-pressure janitor:
	// when HeapAlloc exceeds it, resident passes and cached reports are
	// released (the bounded tiers underneath survive, so repopulation is
	// warm).
	MemSoftLimitBytes uint64
	// HeapStats includes per-stage peak-heap rows in stats snapshots
	// (requires heapwatch sampling enabled by the caller).
	HeapStats bool
	// Now is stubbed in tests for stable timing output (nil = time.Now).
	Now func() time.Time
}

// DefaultReportCacheBytes bounds the daemon's rendered-report cache when
// the config leaves it zero.
const DefaultReportCacheBytes = 64 << 20

// Server is the resident confidence engine: one process holding every
// cache tier hot — trace memo, annotated streams, bucket streams, model
// stats, curves, the artifact disk store, stream segments, and one pass
// cache every request's session shares — behind an HTTP/JSON API serving
// many concurrent clients. Identical concurrent requests coalesce at two
// levels: whole deterministic reports single-flight through a rendered-
// bytes cache, and the underlying suite passes single-flight through the
// shared pass cache, whatever else the requests differ in.
type Server struct {
	cfg     Config
	passes  *exp.Session // owns the shared pass cache; each request's session derives from it
	adm     *Admission
	reports *memo.Tier[string, []byte] // rendered timing-free reports, memory only
	mux     *http.ServeMux

	requestsTotal  atomic.Uint64
	requestsOK     atomic.Uint64
	requestsFailed atomic.Uint64
	pressureEvents atomic.Uint64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a Server and arms its memory-pressure janitor if configured.
// Callers own process-wide engine state: cache bounds, sim parallelism,
// and the default artifact store are set once before requests arrive.
func New(cfg Config) *Server {
	if cfg.ReportCacheBytes == 0 {
		cfg.ReportCacheBytes = DefaultReportCacheBytes
	}
	s := &Server{
		cfg:         cfg,
		passes:      exp.NewSession(exp.Config{}),
		adm:         NewAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueTimeout),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		reports: &memo.Tier[string, []byte]{
			Name: "report",
			Size: func(b []byte) uint64 { return uint64(len(b)) },
		},
	}
	s.passes.SetPassBound(cfg.PassCacheBytes)
	s.reports.SetBound(cfg.ReportCacheBytes)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/report", s.handleReport)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cfg.MemSoftLimitBytes > 0 {
		go s.janitor()
	} else {
		close(s.janitorDone)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting report requests (readiness flips to 503, queued
// waiters are released with 503) and waits for in-flight requests to
// finish or ctx to expire. The HTTP listener itself is shut down by the
// caller afterwards, so health stays observable through the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.Drain()
	err := s.adm.Wait(ctx)
	s.Close()
	return err
}

// Close stops the janitor without draining (tests; Drain calls it).
func (s *Server) Close() {
	select {
	case <-s.janitorStop:
	default:
		close(s.janitorStop)
	}
	<-s.janitorDone
}

// janitor samples the heap and relieves pressure by releasing the resident
// passes and rendered reports, leaving the engine tiers beneath them (and
// the disk store) to serve the warm rebuild.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc <= s.cfg.MemSoftLimitBytes {
				continue
			}
			s.passes.ReleasePasses()
			s.reports.Release()
			s.pressureEvents.Add(1)
			runtime.GC()
		}
	}
}

// maxReportBody bounds a report request's JSON body.
const maxReportBody = 1 << 20

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a ReportRequest JSON body", http.StatusMethodNotAllowed)
		return
	}
	s.requestsTotal.Add(1)
	var req ReportRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// The trace identity in report-cache keys is whatever is on the
	// server's disk right now, never a digest the client claims.
	if err := req.ResolveTrace(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if _, _, err := req.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// The cap applies to the budget the request runs at: an omitted
	// branches field means the benchmark default, not zero.
	if budget := effectiveBudget(req.Branches); s.cfg.MaxBranches > 0 && budget > s.cfg.MaxBranches {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("branches %d exceeds the server's per-request cap (%d)", budget, s.cfg.MaxBranches))
		return
	}

	report, cached, err := s.report(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			s.fail(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueTimeout):
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.fail(w, 499, err) // client went away while queued
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.requestsOK.Add(1)
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	if cached {
		w.Header().Set("X-Report-Cache", "hit")
	} else {
		w.Header().Set("X-Report-Cache", "miss")
	}
	w.Write(report)
}

// report produces the request's bytes. Timing-free requests single-flight
// through (and are retained in) the rendered-report cache: concurrent
// identical requests coalesce onto one build, and repeats are served from
// memory — without passing admission, so a warm hit is never queued or
// shed. Requests that want wall-time lines render fresh — their bytes are
// intentionally non-deterministic — but still share every tier below the
// renderer, pass cache included. Admission bounds the actual builds.
func (s *Server) report(ctx context.Context, req ReportRequest) (_ []byte, cached bool, err error) {
	if !req.NoTimings {
		b, err := s.build(ctx, req)
		return b, false, err
	}
	built := false
	b, err := s.reports.Get(req.Key(), nil, func() ([]byte, error) {
		built = true
		return s.build(ctx, req)
	})
	return b, !built && err == nil, err
}

// build renders one report on a session for the request's configuration
// over the shared pass cache, under the admission controller, surfacing a strict
// artifact store's pinned failure the same way the one-shot CLI does: a
// complete correct report or a clean error, never both.
func (s *Server) build(ctx context.Context, req ReportRequest) ([]byte, error) {
	release, err := s.adm.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	_, segment, err := req.Validate()
	if err != nil {
		return nil, err
	}
	b, err := BuildReport(s.passes.With(req.SessionConfig(segment)), req, BuildOptions{Parallel: s.cfg.Parallel, Now: s.cfg.Now})
	if err != nil {
		return nil, err
	}
	if st := artifact.Default(); st != nil {
		if err := st.Err(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.requestsFailed.Add(1)
	http.Error(w, err.Error(), status)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.passes.Stats()
	snap := SnapshotCacheStats(hits, misses, s.cfg.HeapStats)
	inflight, queued := s.adm.Gauges()
	full, timeout, draining := s.adm.Rejections()
	reports := s.reports.Stats()
	snap.Server = &ServerStatsJSON{
		RequestsTotal:     s.requestsTotal.Load(),
		RequestsOK:        s.requestsOK.Load(),
		RequestsFailed:    s.requestsFailed.Load(),
		ReportCacheHits:   reports.Hits,
		ReportCacheMisses: reports.Misses,
		Inflight:          inflight,
		Queued:            queued,
		RejectedFull:      full,
		RejectedTimeout:   timeout,
		RejectedDraining:  draining,
		PressureEvents:    s.pressureEvents.Load(),
		Draining:          s.adm.Draining(),
	}
	w.Header().Set("Content-Type", "application/json")
	WriteCacheStatsJSON(w, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.adm.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}
