package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/heapwatch"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
)

// The three flag groups the subcommands share. Each is declared and
// validated here once, so every entry point spells a flag, checks it and
// acts on it the same way: the request group (one-shot, client, merge),
// the store group (one-shot, serve, merge) and the engine group (one-shot,
// serve).

// requestFlags is the report-request group.
type requestFlags struct {
	branches      uint64
	only          string
	skipAblations bool
	noTimings     bool
	segment       int64
	trace         string
}

func (rf *requestFlags) addFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&rf.branches, "branches", 0, "dynamic branches per benchmark (0 = benchmark default)")
	fs.StringVar(&rf.only, "only", "", "comma-separated experiment ids to run (default: all but the opt-in ones; paperrepro -h lists them)")
	fs.BoolVar(&rf.skipAblations, "skip-ablations", false, "run only the paper's own artefacts")
	fs.BoolVar(&rf.noTimings, "no-timings", false, "omit the per-experiment wall-time lines, making the report bytes fully deterministic")
	fs.Int64Var(&rf.segment, "segment-branches", -1, "stream traces in segments of this many branches with bounded resident memory (byte-identical; -1 = auto: segment only above the materialization ceiling)")
	fs.StringVar(&rf.trace, "trace", "", "recorded ChampSim trace for the realtrace experiment (generate one with tracegen -format champsim; for client, a path on the daemon's machine)")
}

// request builds the canonical request from the flags. With resolve it
// also pins the segment size and the trace's content identity the engine
// will run with: a -shard worker keys its partial with that request, so a
// store-mode merge must build the same one. The client sends its request
// unresolved, for the daemon to resolve on its own machine.
func (rf *requestFlags) request(resolve bool) (serve.ReportRequest, error) {
	if rf.segment == 0 || rf.segment < -1 {
		return serve.ReportRequest{}, fmt.Errorf("-segment-branches must be at least 1 (or -1 for auto), got %d", rf.segment)
	}
	req := serve.ReportRequest{
		Branches:        rf.branches,
		SkipAblations:   rf.skipAblations,
		NoTimings:       rf.noTimings,
		SegmentBranches: uint64(max(rf.segment, 0)),
		TraceFile:       rf.trace,
	}
	if rf.only != "" {
		for _, id := range strings.Split(rf.only, ",") {
			req.Only = append(req.Only, strings.TrimSpace(id))
		}
		if _, _, err := (serve.ReportRequest{Only: req.Only}).Validate(); err != nil {
			return serve.ReportRequest{}, fmt.Errorf("-only: %w", err)
		}
		slices.Sort(req.Only)
		req.Only = slices.Compact(req.Only)
	}
	if !resolve {
		return req, nil
	}
	req.SegmentBranches = serve.ResolveSegment(req.Branches, req.SegmentBranches)
	if err := req.ResolveTrace(); err != nil {
		return serve.ReportRequest{}, fmt.Errorf("-trace: %w", err)
	}
	return req, nil
}

// storeConfig is the artifact-store group.
type storeConfig struct {
	dir    string // "" = no store; "auto" = the user cache directory
	diskMB uint64
	strict bool
	remote string        // artifactd base URL ("" = no remote tier)
	fs     artifact.FS   // nil = the real disk; tests inject faults
	doer   artifact.Doer // nil = real HTTP; tests inject faults
}

func (sc *storeConfig) addFlags(fs *flag.FlagSet) {
	fs.StringVar(&sc.dir, "artifact-dir", "", "persist engine artifacts in this directory for warm starts across runs (\"auto\" = user cache dir; empty = disabled)")
	fs.Uint64Var(&sc.diskMB, "artifact-disk-mb", 1024, "disk budget for -artifact-dir in MiB: whole packs are evicted least recently used first, and a pack is split at a sixteenth of the budget (0 = unbounded)")
	fs.BoolVar(&sc.strict, "artifact-strict", false, "fail the run (under serve, the request) on any artifact-store I/O error instead of degrading to in-memory-only")
	fs.StringVar(&sc.remote, "artifact-remote", "", "layer a remote artifact store (a paperrepro artifactd base URL) under the local disk store: read-through on local misses, write-behind on publishes")
}

// validate rejects a store flag that needs -artifact-dir without it,
// naming both: such a flag is never silently ignored.
func (sc storeConfig) validate() error {
	if sc.strict && sc.dir == "" {
		return fmt.Errorf("-artifact-strict requires -artifact-dir: there is no store to hold to strict errors")
	}
	if sc.remote != "" && sc.dir == "" {
		return fmt.Errorf("-artifact-remote requires -artifact-dir: the remote tier layers under the local disk store")
	}
	return nil
}

// open installs the configured store as the process default and returns
// it (nil without -artifact-dir) with the func that uninstalls and closes
// it. Closing drains the remote tier's write-behind queue, so artifacts
// published near the end of a run (a shard's partial, the last curves)
// reach the fleet before the process exits.
func (sc storeConfig) open() (*artifact.Store, func(), error) {
	dir := sc.dir
	if dir == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, nil, fmt.Errorf("-artifact-dir auto: %w", err)
		}
		dir = filepath.Join(base, "branchconf", "artifacts")
	}
	if dir == "" {
		return nil, func() {}, nil
	}
	var remote *artifact.Remote
	if sc.remote != "" {
		remote = artifact.NewRemote(sc.remote, sc.doer)
	}
	store, err := artifact.OpenStore(dir, artifact.Options{Budget: sc.diskMB << 20, Strict: sc.strict, FS: sc.fs, Remote: remote})
	if err != nil {
		remote.Close()
		return nil, nil, err
	}
	artifact.SetDefault(store)
	return store, func() {
		store.Close()
		artifact.SetDefault(nil)
	}, nil
}

// engineConfig is the engine group.
type engineConfig struct {
	parallel   int
	annCacheMB uint64
}

func (ec *engineConfig) addFlags(fs *flag.FlagSet) {
	fs.IntVar(&ec.parallel, "parallel", runtime.NumCPU(), "max concurrent experiments per report, and the process-wide bound on per-benchmark simulation units and streaming unit pipelines (each pipeline itself overlaps annotate/tally with a bounded segment queue)")
	fs.Uint64Var(&ec.annCacheMB, "annotate-cache-mb", 256, "resident bound in MiB for each in-memory engine tier: annotated streams with their flat views, bucket histograms with the cycle models' counter lanes, model counts, curves (0 = unbounded)")
}

func (ec engineConfig) validate() error {
	if ec.parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", ec.parallel)
	}
	return nil
}

// setup configures the process-wide engine state: the resident bound of
// every bounded memory tier (the trace memo stays unbounded), the
// simulation-unit bound, and fresh stream counters; with heapStats it
// also starts sampling per-stage peak heap. Stream counters and heap peaks
// are per-run observability, unlike the tiers, whose contents (and so
// counters) persist process-wide.
func (ec engineConfig) setup(heapStats bool) {
	bound := ec.annCacheMB << 20
	sim.SetAnnotatedCacheBound(bound)
	sim.SetTallyCacheDefaultBound(bound)
	exp.SetCurveCacheDefaultBound(bound)
	exp.SetModelCacheDefaultBound(bound)
	sim.SetParallelism(ec.parallel)
	sim.ResetStreamStats()
	if heapStats {
		heapwatch.Reset()
		heapwatch.Enable()
	}
}
