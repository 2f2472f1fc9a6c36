package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"branchconf/internal/artifact"
	"branchconf/internal/heapwatch"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
)

// serveMain runs the resident confidence daemon: one process keeps every
// cache tier hot — trace memo, annotated streams, bucket streams, model
// stats, curves, the artifact disk store, stream segments, and per-config
// session pass caches — and serves report, stats, health, and pprof
// endpoints to many concurrent clients. SIGTERM/SIGINT drain gracefully:
// readiness flips to 503, queued requests are released, in-flight requests
// finish (bounded by -drain-timeout), then the listener closes.
func serveMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro serve", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		listen        = fs.String("listen", "127.0.0.1:8091", "listen address (host:port; port 0 picks a free port, printed on stderr)")
		parallel      = fs.Int("parallel", runtime.NumCPU(), "max concurrent experiments within one request, and the process-wide simulation-unit bound")
		annCacheMB    = fs.Uint64("annotate-cache-mb", 256, tierBoundUsage)
		artifactDir   = fs.String("artifact-dir", "", "persist engine artifacts in this directory for warm starts across restarts (\"auto\" = user cache dir; empty = disabled)")
		artifactMB    = fs.Uint64("artifact-disk-mb", 1024, "disk budget for -artifact-dir in MiB: whole packs are evicted least recently used first, and a pack is split at a sixteenth of the budget (0 = unbounded)")
		strictStore   = fs.Bool("artifact-strict", false, "fail requests on any artifact-store I/O error instead of degrading to in-memory-only")
		remoteURL     = fs.String("artifact-remote", "", "layer a remote artifact store (a paperrepro artifactd base URL) under the local disk store: read-through on local misses, write-behind on publishes")
		cacheStats    = fs.Bool("cache-stats", false, "sample per-stage peak heap and include the rows in stats snapshots")
		maxInflight   = fs.Int("max-inflight", runtime.NumCPU(), "max report requests executing at once (the admission controller's slot count)")
		maxQueue      = fs.Int("max-queue", 64, "max report requests waiting for a slot; beyond this requests are shed with 429")
		queueTimeout  = fs.Duration("queue-timeout", 30*time.Second, "max time a request may queue before it is shed with 429 (0 = queue until a slot frees or the client gives up)")
		maxBranches   = fs.Uint64("max-request-branches", 0, "cap on a request's per-benchmark branch budget (0 = uncapped)")
		maxSessions   = fs.Int("max-sessions", 0, "max resident sessions, one per distinct request configuration (0 = default)")
		passCacheMB   = fs.Uint64("pass-cache-mb", 256, "per-session resident bound for memoized suite passes in MiB (0 = unbounded)")
		reportCacheMB = fs.Uint64("report-cache-mb", 64, "resident bound for rendered deterministic reports in MiB")
		memSoftMB     = fs.Uint64("mem-soft-limit-mb", 0, "heap soft limit in MiB: above it, resident sessions and cached reports are released (0 = off)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *parallel)
	}
	if *strictStore && *artifactDir == "" {
		return fmt.Errorf("-artifact-strict requires -artifact-dir: there is no store to hold to strict errors")
	}
	if *remoteURL != "" && *artifactDir == "" {
		return fmt.Errorf("-artifact-remote requires -artifact-dir: the remote tier layers under the local disk store")
	}

	dir := *artifactDir
	if dir == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			return fmt.Errorf("-artifact-dir auto: %w", err)
		}
		dir = filepath.Join(base, "branchconf", "artifacts")
	}
	if dir != "" {
		var remote *artifact.Remote
		if *remoteURL != "" {
			remote = artifact.NewRemote(*remoteURL, nil)
		}
		store, err := artifact.OpenStore(dir, artifact.Options{Budget: *artifactMB << 20, Strict: *strictStore, Remote: remote})
		if err != nil {
			remote.Close()
			return err
		}
		artifact.SetDefault(store)
		defer artifact.SetDefault(nil)
		defer store.Close()
	}
	setTierBounds(*annCacheMB << 20)
	sim.SetParallelism(*parallel)
	sim.ResetStreamStats()
	if *cacheStats {
		heapwatch.Reset()
		heapwatch.Enable()
	}

	srv := serve.New(serve.Config{
		Parallel:          *parallel,
		MaxSessions:       *maxSessions,
		PassCacheBytes:    *passCacheMB << 20,
		MaxInflight:       *maxInflight,
		MaxQueue:          *maxQueue,
		QueueTimeout:      *queueTimeout,
		MaxBranches:       *maxBranches,
		ReportCacheBytes:  *reportCacheMB << 20,
		MemSoftLimitBytes: *memSoftMB << 20,
		HeapStats:         *cacheStats,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(errW, "paperrepro serve: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case s := <-sig:
		fmt.Fprintf(errW, "paperrepro serve: %v received, draining\n", s)
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	shutdownErr := httpSrv.Shutdown(ctx)
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	if shutdownErr != nil {
		return fmt.Errorf("serve: shutdown: %w", shutdownErr)
	}
	fmt.Fprintf(errW, "paperrepro serve: drained cleanly\n")
	return nil
}
