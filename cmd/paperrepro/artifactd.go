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
	"syscall"
	"time"

	"branchconf/internal/artifact"
)

// artifactdMain runs the artifact store daemon: a minimal HTTP object store
// serving one artifact directory — with the same content addressing,
// budgeted LRU GC, and atomic publish the local tier uses — to a fleet of
// workers that layer it under their local stores with -artifact-remote.
// SIGTERM/SIGINT shut down gracefully: the listener closes, in-flight
// requests finish (bounded by a 10s drain), and the store's index is left
// consistent (every publish was atomic anyway).
func artifactdMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro artifactd", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		listen = fs.String("listen", "127.0.0.1:8092", "listen address (host:port; port 0 picks a free port, printed on stderr)")
		dir    = fs.String("dir", "", "artifact directory to serve (required)")
		diskMB = fs.Uint64("disk-mb", 1024, "disk budget for -dir in MiB: whole packs are evicted least recently used first, and a pack is split at a sixteenth of the budget (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("artifactd: unexpected arguments %v", fs.Args())
	}
	if *dir == "" {
		return fmt.Errorf("artifactd: -dir is required: the daemon serves one artifact directory")
	}
	store, err := artifact.OpenStore(*dir, artifact.Options{Budget: *diskMB << 20})
	if err != nil {
		return err
	}
	srv := artifact.NewRemoteServer(store)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(errW, "paperrepro artifactd: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case s := <-sig:
		fmt.Fprintf(errW, "paperrepro artifactd: %v received, draining\n", s)
	case err := <-serveErr:
		return fmt.Errorf("artifactd: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("artifactd: shutdown: %w", err)
	}
	fmt.Fprintf(errW, "paperrepro artifactd: drained cleanly\n")
	return nil
}
