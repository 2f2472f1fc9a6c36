// Command paperrepro regenerates every table and figure from the paper's
// evaluation in one run and writes a consolidated report, the data behind
// EXPERIMENTS.md. It is the one program that runs experiments: -only picks
// any subset of the registry (paperrepro -h lists it), and -data writes
// each executed experiment's artefact as JSON and its curves as gnuplot
// .dat files.
//
// The run is a single-pass pipeline: benchmark traces are materialized once
// into compact replay buffers, experiments declare their (predictor,
// mechanism) needs against a shared session that batches them into one
// predictor pass per benchmark, and a bounded worker pool executes
// experiments in parallel. Parallelism and sharing never change the report:
// output is byte-identical to a serial, uncached run.
//
// Usage:
//
//	paperrepro [-branches 1000000] [-o report.md] [-skip-ablations]
//	           [-only fig5,table1] [-parallel N] [-no-timings]
//	           [-annotate-cache-mb 256] [-segment-branches N] [-trace FILE]
//	           [-artifact-dir DIR|auto] [-artifact-disk-mb 1024]
//	           [-artifact-strict] [-artifact-remote URL] [-shard i/n]
//	           [-data DIR] [-cache-stats] [-cache-stats-json]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	paperrepro -h
//	paperrepro serve [-listen 127.0.0.1:8091] [engine flags] [store flags] [service flags]
//	paperrepro client [-addr http://127.0.0.1:8091] [request flags | -stats]
//	paperrepro artifactd [-listen 127.0.0.1:8092] -dir DIR [-disk-mb 1024]
//	paperrepro merge [-o report.md] partial.json... | merge -from-store -shards N [request flags] [store flags]
//
// The bare invocation is the one-shot run. "serve" starts the resident
// confidence daemon — every cache tier stays hot in one process and many
// concurrent clients are served over HTTP/JSON — and "client" is its thin
// CLI client; see their -h output and README's service-mode section. The
// request, store and engine flags mean the same wherever they appear.
//
// "artifactd" serves an artifact directory to a fleet of workers over the
// remote object protocol; workers layer it under their local stores with
// -artifact-remote. "-shard i/n" runs one worker's slice of the experiment
// selection and emits a partial report; "merge" assembles partials —
// from files or, with -from-store, from the (remote) artifact store — into
// a report byte-identical to the single-process run, which is the fan-out's
// in-process form. See README's fan-out section.
//
// With -artifact-dir, the engine's five expensive intermediates —
// materialized traces, annotated streams, bucket streams, cycle-model
// count vectors, and sorted confidence curves — persist in a
// content-addressed store across process runs, so a repeated invocation
// warm-starts past trace generation, every predictor walk, every cycle
// model, and the curve builds on top of them. The report is
// byte-identical either way; corruption in the store is detected, discarded
// and regenerated, and disk faults (ENOSPC, EIO, permission errors) degrade
// the store to in-memory-only rather than failing the run — visible under
// -cache-stats as op_errors/degraded. -artifact-strict inverts that policy:
// the first classified store failure fails the run instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"branchconf/internal/exp"
	"branchconf/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// run dispatches to the subcommand and treats -h, whose usage the flag
// package has already printed, as success.
func run(args []string, stdout, errW io.Writer) error {
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = serveMain(args[1:], stdout, errW)
	case len(args) > 0 && args[0] == "client":
		err = clientMain(args[1:], stdout, errW)
	case len(args) > 0 && args[0] == "artifactd":
		err = artifactdMain(args[1:], stdout, errW)
	case len(args) > 0 && args[0] == "merge":
		err = mergeMain(args[1:], stdout, errW)
	default:
		err = appMain(args, stdout, errW)
	}
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// appMain is the testable entry point; progress goes to errW, the report
// to -o or stdout.
func appMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		rf  requestFlags
		cfg reportConfig
	)
	rf.addFlags(fs)
	cfg.engine.addFlags(fs)
	cfg.store.addFlags(fs)
	out := fs.String("o", "", "write the report to this file instead of stdout")
	shardSpec := fs.String("shard", "", "run only shard i of n (\"i/n\") of the experiment selection and emit a partial report (JSON) instead of markdown; merge partials with \"paperrepro merge\"")
	fs.StringVar(&cfg.dataDir, "data", "", "write each experiment's artefact into this directory as <id>.json and each of its curves as a gnuplot-ready <id>-<series>.dat")
	fs.BoolVar(&cfg.cacheStats, "cache-stats", false, "print per-cache hit/miss/eviction and resident-bytes counters to stderr at exit")
	fs.BoolVar(&cfg.cacheStatsJSON, "cache-stats-json", false, "print the same per-cache counters as machine-readable JSON to stderr at exit (the daemon's stats-endpoint encoding)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage: paperrepro [flags]\n       paperrepro serve|client|artifactd|merge [flags]   (each takes -h)\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(w, "\nExperiments (ids for -only, in report order):\n")
		for _, e := range exp.All() {
			optIn := ""
			if e.OptIn {
				optIn = " [opt-in: runs only when -only names it]"
			}
			fmt.Fprintf(w, "  %-20s %s%s\n", e.ID, e.Title, optIn)
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v (subcommands: serve, client, artifactd, merge)", fs.Args())
	}
	if err := cfg.engine.validate(); err != nil {
		return err
	}
	if err := cfg.store.validate(); err != nil {
		return err
	}
	if *shardSpec != "" {
		sh, err := serve.ParseShard(*shardSpec)
		if err != nil {
			return fmt.Errorf("-shard: %w", err)
		}
		cfg.shard = sh
	}
	req, err := rf.request(true)
	if err != nil {
		return err
	}
	cfg.req = req
	cfg.progress = *out != ""

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeReport(w, errW, cfg); err != nil {
		return err
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		runtime.GC() // materialized caches and final results, not transients
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			return fmt.Errorf("writing heap profile: %w", ferr)
		}
	}
	return nil
}

// now is stubbed in tests for stable timing output.
var now = time.Now
