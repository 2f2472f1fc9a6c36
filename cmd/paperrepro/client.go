package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
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
		out     = fs.String("o", "", "write the report (with -stats, the stats JSON) to this file instead of stdout")
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
	// -stats and -ready send no report request, and -ready prints one
	// line: reject, by name, each flag they would silently ignore.
	if *stats || *ready {
		ignored := flag.NewFlagSet("", flag.ContinueOnError)
		new(requestFlags).addFlags(ignored)
		mode := "-stats"
		if *ready {
			mode = "-ready"
			ignored.String("o", "", "")
			ignored.Bool("stats", false, "")
		}
		var misused []string
		fs.Visit(func(f *flag.Flag) {
			if ignored.Lookup(f.Name) != nil {
				misused = append(misused, "-"+f.Name)
			}
		})
		if len(misused) > 0 {
			return fmt.Errorf("client: %s would be ignored with %s", strings.Join(misused, ", "), mode)
		}
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
		var b bytes.Buffer
		if err := serve.WriteCacheStatsJSON(&b, snap); err != nil {
			return err
		}
		return writeOut(stdout, *out, b.Bytes())
	}

	report, cached, err := c.Report(ctx, req)
	if err != nil {
		return err
	}
	if cached {
		fmt.Fprintln(errW, "client: served from the daemon's report cache")
	}
	return writeOut(stdout, *out, report)
}
