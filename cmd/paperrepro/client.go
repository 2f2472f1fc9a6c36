package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"branchconf/internal/serve"
)

// clientMain is the daemon's thin CLI client: it maps the one-shot run's
// request flags onto a report request, or fetches the daemon's stats and
// health endpoints.
func clientMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro client", flag.ContinueOnError)
	fs.SetOutput(errW)
	var rf requestFlags
	rf.addFlags(fs)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8091", "daemon base URL")
		out     = fs.String("o", "", "write the report to this file instead of stdout")
		stats   = fs.Bool("stats", false, "fetch the daemon's cache-stats JSON instead of a report")
		ready   = fs.Bool("ready", false, "probe the daemon's readiness endpoint instead of a report")
		timeout = fs.Duration("timeout", 10*time.Minute, "request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("client: unexpected arguments %v", fs.Args())
	}
	req, err := rf.request(false)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := &serve.Client{Base: *addr}

	switch {
	case *ready:
		if err := c.Ready(ctx); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "ready")
		return nil
	case *stats:
		snap, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		return serve.WriteCacheStatsJSON(stdout, snap)
	}

	report, cached, err := c.Report(ctx, req)
	if err != nil {
		return err
	}
	if cached {
		fmt.Fprintln(errW, "client: served from the daemon's report cache")
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = w.Write(report)
	return err
}
