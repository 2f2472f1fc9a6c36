// Command paperrepro regenerates every table and figure from the paper's
// evaluation in one run and writes a consolidated report, the data behind
// EXPERIMENTS.md.
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
//	           [-cache-stats] [-cache-stats-json]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	paperrepro serve [-listen 127.0.0.1:8091] [engine flags] [service flags]
//	paperrepro client [-addr http://127.0.0.1:8091] [request flags | -stats]
//	paperrepro artifactd [-listen 127.0.0.1:8092] -dir DIR [-disk-mb 1024]
//	paperrepro fanout -shards N [engine flags]
//	paperrepro merge [-o report.md] partial.json... | merge -from-store -shards N [flags]
//
// The bare invocation is the one-shot run. "serve" starts the resident
// confidence daemon — every cache tier stays hot in one process and many
// concurrent clients are served over HTTP/JSON — and "client" is its thin
// CLI client; see their -h output and README's service-mode section.
//
// "artifactd" serves an artifact directory to a fleet of workers over the
// remote object protocol; workers layer it under their local stores with
// -artifact-remote. "-shard i/n" runs one worker's slice of the experiment
// selection and emits a partial report; "merge" assembles partials —
// from files or, with -from-store, from the (remote) artifact store — into
// a report byte-identical to the single-process run; "fanout" does the
// shard/merge round trip in one coordinating process. See README's
// fan-out section.
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
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"branchconf/internal/serve"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = serveMain(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "client":
		err = clientMain(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "artifactd":
		err = artifactdMain(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "fanout":
		err = fanoutMain(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "merge":
		err = mergeMain(args[1:], os.Stdout, os.Stderr)
	default:
		err = appMain(args, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// appMain is the testable entry point; progress goes to errW, the report
// to -o or stdout.
func appMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		branches      = fs.Uint64("branches", 0, "dynamic branches per benchmark (0 = benchmark default)")
		out           = fs.String("o", "", "write the report to this file instead of stdout")
		skipAblations = fs.Bool("skip-ablations", false, "run only the paper's own artefacts")
		only          = fs.String("only", "", "comma-separated experiment ids to run (default: all)")
		parallel      = fs.Int("parallel", runtime.NumCPU(), "max concurrent experiments, per-benchmark simulation units, and streaming unit pipelines (each pipeline itself overlaps annotate/tally with a bounded segment queue)")
		annCacheMB    = fs.Uint64("annotate-cache-mb", 256, tierBoundUsage)
		segBranches   = fs.Int64("segment-branches", -1, "stream traces in segments of this many branches with bounded resident memory (byte-identical; -1 = auto: segment only above the materialization ceiling)")
		noTimings     = fs.Bool("no-timings", false, "omit the per-experiment wall-time lines, making the report bytes fully deterministic")
		traceFile     = fs.String("trace", "", "recorded ChampSim trace for the realtrace experiment (generate one with tracegen -format champsim)")
		artifactDir   = fs.String("artifact-dir", "", "persist engine artifacts in this directory for warm starts across runs (\"auto\" = user cache dir; empty = disabled)")
		artifactMB    = fs.Uint64("artifact-disk-mb", 1024, "disk budget for -artifact-dir in MiB: whole packs are evicted least recently used first, and a pack is split at a sixteenth of the budget (0 = unbounded)")
		strictStore   = fs.Bool("artifact-strict", false, "fail the run on any artifact-store I/O error instead of degrading to in-memory-only")
		remoteURL     = fs.String("artifact-remote", "", "layer a remote artifact store (a paperrepro artifactd base URL) under the local disk store: read-through on local misses, write-behind on publishes")
		shardSpec     = fs.String("shard", "", "run only shard i of n (\"i/n\") of the experiment selection and emit a partial report (JSON) instead of markdown; merge partials with \"paperrepro merge\"")
		cacheStats    = fs.Bool("cache-stats", false, "print per-cache hit/miss/eviction and resident-bytes counters to stderr at exit")
		cacheStatsJ   = fs.Bool("cache-stats-json", false, "print the same per-cache counters as machine-readable JSON to stderr at exit (the daemon's stats-endpoint encoding)")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *parallel)
	}
	if *segBranches == 0 || *segBranches < -1 {
		return fmt.Errorf("-segment-branches must be at least 1 (or -1 for auto), got %d", *segBranches)
	}
	// Flags that depend on another fail up front with an error naming
	// both — never silently ignored.
	if *strictStore && *artifactDir == "" {
		return fmt.Errorf("-artifact-strict requires -artifact-dir: there is no store to hold to strict errors")
	}
	if *remoteURL != "" && *artifactDir == "" {
		return fmt.Errorf("-artifact-remote requires -artifact-dir: the remote tier layers under the local disk store")
	}
	if *shardSpec != "" {
		if _, err := serve.ParseShard(*shardSpec); err != nil {
			return fmt.Errorf("-shard: %w", err)
		}
	}
	segment := serve.ResolveSegment(*branches, uint64(max(*segBranches, 0)))

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
	var filter map[string]bool
	if *only != "" {
		var onlyIDs []string
		for _, id := range strings.Split(*only, ",") {
			onlyIDs = append(onlyIDs, strings.TrimSpace(id))
		}
		if _, _, err := (serve.ReportRequest{Only: onlyIDs}).Validate(); err != nil {
			return fmt.Errorf("-only: %w", err)
		}
		filter = map[string]bool{}
		for _, id := range onlyIDs {
			filter[id] = true
		}
	}
	dir := *artifactDir
	if dir == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			return fmt.Errorf("-artifact-dir auto: %w", err)
		}
		dir = filepath.Join(base, "branchconf", "artifacts")
	}
	err := writeReport(w, errW, reportConfig{
		branches:        *branches,
		skipAblations:   *skipAblations,
		filter:          filter,
		noTimings:       *noTimings,
		traceFile:       *traceFile,
		progress:        *out != "",
		parallel:        *parallel,
		annCacheBytes:   *annCacheMB << 20,
		segmentBranches: segment,
		cacheStats:      *cacheStats,
		cacheStatsJSON:  *cacheStatsJ,
		artifactDir:     dir,
		artifactBudget:  *artifactMB << 20,
		artifactStrict:  *strictStore,
		artifactRemote:  *remoteURL,
		shard:           *shardSpec,
	})
	if err != nil {
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
