package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/serve"
)

// requestFlags declares the report-request flags shared by the fan-out
// coordinator and the store-mode merge — the subset of the one-shot CLI
// that shapes the canonical request every worker must agree on.
type requestFlags struct {
	branches      *uint64
	only          *string
	skipAblations *bool
	noTimings     *bool
	segBranches   *int64
}

func addRequestFlags(fs *flag.FlagSet) requestFlags {
	return requestFlags{
		branches:      fs.Uint64("branches", 0, "dynamic branches per benchmark (0 = benchmark default)"),
		only:          fs.String("only", "", "comma-separated experiment ids to run (default: all)"),
		skipAblations: fs.Bool("skip-ablations", false, "run only the paper's own artefacts"),
		noTimings:     fs.Bool("no-timings", false, "omit the per-experiment wall-time lines, making the report bytes fully deterministic"),
		segBranches:   fs.Int64("segment-branches", -1, "stream traces in segments of this many branches (byte-identical; -1 = auto)"),
	}
}

// request resolves the flags into the canonical request (the same
// validation and auto-segment policy the one-shot path applies).
func (rf requestFlags) request() (serve.ReportRequest, error) {
	if *rf.segBranches == 0 || *rf.segBranches < -1 {
		return serve.ReportRequest{}, fmt.Errorf("-segment-branches must be at least 1 (or -1 for auto), got %d", *rf.segBranches)
	}
	var only []string
	if *rf.only != "" {
		for _, id := range strings.Split(*rf.only, ",") {
			only = append(only, strings.TrimSpace(id))
		}
		sort.Strings(only)
	}
	req := serve.ReportRequest{
		Branches:      *rf.branches,
		Only:          only,
		SkipAblations: *rf.skipAblations,
		NoTimings:     *rf.noTimings,
	}
	if *rf.segBranches > 0 {
		req.SegmentBranches = uint64(*rf.segBranches)
	}
	if _, _, err := req.Validate(); err != nil {
		return serve.ReportRequest{}, err
	}
	return req, nil
}

// storeFlags declares the artifact-store flags shared by fanout and merge.
type storeFlags struct {
	dir    *string
	diskMB *uint64
	remote *string
}

func addStoreFlags(fs *flag.FlagSet) storeFlags {
	return storeFlags{
		dir:    fs.String("artifact-dir", "", "persist engine artifacts in this directory (\"auto\" = user cache dir; empty = disabled)"),
		diskMB: fs.Uint64("artifact-disk-mb", 1024, "disk budget for -artifact-dir in MiB: whole packs are evicted least recently used first, and a pack is split at a sixteenth of the budget (0 = unbounded)"),
		remote: fs.String("artifact-remote", "", "layer a remote artifact store (a paperrepro artifactd base URL) under the local disk store"),
	}
}

// open installs the configured store as the process default, returning a
// release func (nil store is fine; release is always safe to call).
func (sf storeFlags) open() (func(), error) {
	if *sf.remote != "" && *sf.dir == "" {
		return nil, fmt.Errorf("-artifact-remote requires -artifact-dir: the remote tier layers under the local disk store")
	}
	dir := *sf.dir
	if dir == "auto" {
		base, err := os.UserCacheDir()
		if err != nil {
			return nil, fmt.Errorf("-artifact-dir auto: %w", err)
		}
		dir = filepath.Join(base, "branchconf", "artifacts")
	}
	if dir == "" {
		return func() {}, nil
	}
	var remote *artifact.Remote
	if *sf.remote != "" {
		remote = artifact.NewRemote(*sf.remote, nil)
	}
	store, err := artifact.OpenStore(dir, artifact.Options{Budget: *sf.diskMB << 20, Remote: remote})
	if err != nil {
		remote.Close()
		return nil, err
	}
	artifact.SetDefault(store)
	return func() {
		artifact.SetDefault(nil)
		store.Close()
	}, nil
}

// fanoutMain is the in-process fan-out coordinator: it cuts the request's
// experiment selection into -shards strided slices, runs each slice as a
// worker building a partial report, round-trips every partial through its
// wire encoding (and, when a store is configured, publishes it as a
// KindPartial artifact), and merges them in registry order. The merged
// report is byte-identical to the single-process run of the same request —
// the multi-machine version of this loop is `paperrepro -shard i/n` per
// worker plus `paperrepro merge`.
func fanoutMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro fanout", flag.ContinueOnError)
	fs.SetOutput(errW)
	shards := fs.Int("shards", 2, "number of worker shards to cut the experiment selection into")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max concurrent experiments across all shards")
	out := fs.String("o", "", "write the merged report to this file instead of stdout")
	rf := addRequestFlags(fs)
	sf := addStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fanout: unexpected arguments %v", fs.Args())
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", *parallel)
	}
	req, err := rf.request()
	if err != nil {
		return err
	}
	if _, err := serve.ValidateShards(req, *shards); err != nil {
		return err
	}
	release, err := sf.open()
	if err != nil {
		return err
	}
	defer release()

	// One shared session: workers are shards of one logical run, so they
	// share every cache tier exactly as one process's worker pool would.
	session := exp.NewSession(exp.Config{Branches: req.Branches, SegmentBranches: req.SegmentBranches})
	// Split the experiment-level parallelism across concurrently running
	// shards; each worker gets at least one slot.
	perShard := *parallel / *shards
	if perShard < 1 {
		perShard = 1
	}
	partials := make([]*serve.PartialReport, *shards)
	errs := make([]error, *shards)
	var wg sync.WaitGroup
	for i := 0; i < *shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := serve.Shard{Index: i, Count: *shards}
			p, err := serve.BuildPartial(session, req, serve.BuildOptions{Parallel: perShard, Now: now}, sh)
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", sh, err)
				return
			}
			// Round-trip through the wire codec, so the merge consumes
			// exactly what a remote worker would have shipped.
			p, err = serve.DecodePartial(p.Encode())
			if err != nil {
				errs[i] = fmt.Errorf("shard %s: %w", sh, err)
				return
			}
			serve.PublishPartial(p)
			partials[i] = p
			fmt.Fprintf(errW, "shard %s done: %d experiments\n", sh, len(p.Sections))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	report, err := serve.MergeReport(req, partials)
	if err != nil {
		return err
	}
	return writeOut(stdout, *out, report)
}

// mergeMain assembles shard partials into the final report. Two sources:
// positional partial files (each worker's -shard output), or -from-store,
// which fetches every shard's KindPartial artifact from the configured
// (possibly remote) store — the coordinator never re-runs an experiment
// either way.
func mergeMain(args []string, stdout, errW io.Writer) error {
	fs := flag.NewFlagSet("paperrepro merge", flag.ContinueOnError)
	fs.SetOutput(errW)
	out := fs.String("o", "", "write the merged report to this file instead of stdout")
	fromStore := fs.Bool("from-store", false, "fetch partials from the artifact store instead of reading partial files")
	shards := fs.Int("shards", 0, "with -from-store: the fan-out's shard count (fetches shards 0/n..n-1/n)")
	rf := addRequestFlags(fs)
	sf := addStoreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fromStore {
		if fs.NArg() > 0 {
			return fmt.Errorf("merge: -from-store conflicts with partial files %v: choose one source", fs.Args())
		}
		if *shards < 1 {
			return fmt.Errorf("merge: -from-store requires -shards: the store is probed per shard coordinate")
		}
		if *sf.dir == "" {
			return fmt.Errorf("merge: -from-store requires -artifact-dir: there is no store to fetch partials from")
		}
		req, err := rf.request()
		if err != nil {
			return err
		}
		release, err := sf.open()
		if err != nil {
			return err
		}
		defer release()
		partials := make([]*serve.PartialReport, *shards)
		for i := range partials {
			sh := serve.Shard{Index: i, Count: *shards}
			p, ok := serve.FetchPartial(req, sh)
			if !ok {
				return fmt.Errorf("merge: no partial for shard %s in the artifact store (did that worker run with -artifact-dir and the same request flags?)", sh)
			}
			partials[i] = p
		}
		report, err := serve.MergeReport(req, partials)
		if err != nil {
			return err
		}
		return writeOut(stdout, *out, report)
	}

	// File mode: the partials carry their request; the merge takes it from
	// the first and verifies the rest against its canonical key. Request
	// flags would be silently shadowed, so reject them explicitly.
	var misused []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "branches", "only", "skip-ablations", "no-timings", "segment-branches", "shards":
			misused = append(misused, "-"+f.Name)
		}
	})
	if len(misused) > 0 {
		return fmt.Errorf("merge: %s applies only with -from-store: file partials carry their request", strings.Join(misused, ", "))
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: needs partial report files (or -from-store -shards n)")
	}
	var partials []*serve.PartialReport
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		p, err := serve.DecodePartial(data)
		if err != nil {
			return fmt.Errorf("merge: %s: %w", path, err)
		}
		partials = append(partials, p)
	}
	report, err := serve.MergeReport(partials[0].Request, partials)
	if err != nil {
		return err
	}
	return writeOut(stdout, *out, report)
}

// writeOut writes the report to the -o file or stdout.
func writeOut(stdout io.Writer, path string, report []byte) error {
	if path == "" {
		_, err := stdout.Write(report)
		return err
	}
	return os.WriteFile(path, report, 0o644)
}
