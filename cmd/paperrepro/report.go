package main

import (
	"fmt"
	"io"
	"sort"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/heapwatch"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
)

// reportConfig controls which experiments run and how output is produced.
type reportConfig struct {
	branches        uint64
	skipAblations   bool
	filter          map[string]bool // experiment id filter (nil = all)
	noTimings       bool            // omit per-experiment wall-time lines
	traceFile       string          // recorded ChampSim trace for realtrace ("" = none)
	progress        bool            // emit per-experiment progress to errW
	parallel        int             // max concurrent experiments (<=1 = serial)
	annCacheBytes   uint64          // resident bound of each memory tier (0 = unbounded)
	segmentBranches uint64          // stream traces in segments of this many branches (0 = monolithic)
	cacheStats      bool            // print per-cache counters to errW at exit
	cacheStatsJSON  bool            // print the same counters as JSON to errW at exit
	artifactDir     string          // persistent artifact store directory ("" = disabled)
	artifactBudget  uint64          // artifact store disk budget in bytes (0 = unbounded)
	artifactStrict  bool            // fail hard on store I/O errors instead of degrading
	artifactFS      artifact.FS     // filesystem for the store (nil = real disk; tests inject faults)
	artifactRemote  string          // remote artifact store base URL ("" = no remote tier)
	remoteDoer      artifact.Doer   // transport for the remote tier (nil = real HTTP; tests inject faults)
	shard           string          // "i/n": run one shard and emit a partial report ("" = full report)
}

// writeReport is the one-shot run: it configures the process-wide engine
// state (store, cache bounds, parallelism), builds the report through the
// same serve.BuildReport the daemon renders with — which is what makes a
// daemon-served report byte-identical to this path — and writes it to w.
func writeReport(w, errW io.Writer, cfg reportConfig) error {
	var store *artifact.Store
	if cfg.artifactDir != "" {
		var remote *artifact.Remote
		if cfg.artifactRemote != "" {
			remote = artifact.NewRemote(cfg.artifactRemote, cfg.remoteDoer)
		}
		var err error
		store, err = artifact.OpenStore(cfg.artifactDir, artifact.Options{
			Budget: cfg.artifactBudget,
			Strict: cfg.artifactStrict,
			FS:     cfg.artifactFS,
			Remote: remote,
		})
		if err != nil {
			remote.Close()
			return err
		}
		artifact.SetDefault(store)
		defer artifact.SetDefault(nil)
		// Close drains the remote tier's write-behind queue, so artifacts
		// published near the end of the run (a shard's partial, the last
		// curves) reach the fleet before the process exits.
		defer store.Close()
	}
	setTierBounds(cfg.annCacheBytes)
	// Stream counters and heap peaks are per-run observability (unlike the
	// cache tiers, whose contents — and so counters — persist process-wide),
	// so each report starts them from zero.
	sim.ResetStreamStats()
	if cfg.cacheStats || cfg.cacheStatsJSON {
		heapwatch.Reset()
		heapwatch.Enable()
	}
	session := exp.NewSession(exp.Config{
		Branches:        cfg.branches,
		SegmentBranches: cfg.segmentBranches,
		TraceFile:       cfg.traceFile,
	})
	var only []string
	if cfg.filter != nil {
		only = make([]string, 0, len(cfg.filter))
		for id := range cfg.filter {
			only = append(only, id)
		}
		sort.Strings(only)
	}
	req := serve.ReportRequest{
		Branches:        cfg.branches,
		Only:            only,
		SkipAblations:   cfg.skipAblations,
		NoTimings:       cfg.noTimings,
		SegmentBranches: cfg.segmentBranches,
		TraceFile:       cfg.traceFile,
	}
	// Pin the trace's content identity before any keying (partial-report
	// artifact keys include the request key), failing up front on an
	// unreadable or malformed trace file.
	if err := req.ResolveTrace(); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	opts := serve.BuildOptions{Parallel: cfg.parallel, Now: now}
	if cfg.progress {
		opts.Progress = func(id string, elapsed float64) {
			fmt.Fprintf(errW, "%-20s done in %.1fs\n", id, elapsed)
		}
	}
	var report []byte
	if cfg.shard != "" {
		// Shard mode: run this worker's slice of the selection and emit the
		// partial report — to w for file-based merges, and into the (possibly
		// remote) artifact store for store-based merges.
		sh, err := serve.ParseShard(cfg.shard)
		if err != nil {
			return fmt.Errorf("-shard: %w", err)
		}
		p, err := serve.BuildPartial(session, req, opts, sh)
		if err != nil {
			return err
		}
		serve.PublishPartial(p)
		report = p.Encode()
	} else {
		var err error
		report, err = serve.BuildReport(session, req, opts)
		if err != nil {
			return err
		}
	}

	// A strict store pins its first classified I/O failure; surface it
	// before any report bytes are written, so -artifact-strict yields
	// either a complete correct report or a clean error — never both.
	if store != nil {
		if err := store.Err(); err != nil {
			return err
		}
	}
	if _, err := w.Write(report); err != nil {
		return err
	}

	if cfg.progress {
		tiers := map[string]artifact.TierStats{}
		for _, tier := range exp.CacheTiers() {
			tiers[tier.Name] = tier.Stats
		}
		trace, ann := tiers["trace-memo"], tiers["annotated-stream"]
		bucket, model, curve, disk := tiers["bucket-stream"], tiers["model-stats"], tiers["curve"], tiers["artifact-disk"]
		pHits, pMisses := session.Stats()
		fmt.Fprintf(errW, "pass cache: %d hits, %d misses; trace cache: %d hits, %d misses (%.1f MB resident); annotated cache: %d hits, %d misses (%.1f MB resident); bucket cache: %d hits, %d misses; model cache: %d hits, %d misses; curve cache: %d hits, %d misses; artifact disk: %d hits, %d misses\n",
			pHits, pMisses, trace.Hits, trace.Misses, float64(trace.ResidentBytes)/(1<<20),
			ann.Hits, ann.Misses, float64(ann.ResidentBytes)/(1<<20),
			bucket.Hits, bucket.Misses, model.Hits, model.Misses,
			curve.Hits, curve.Misses, disk.Hits, disk.Misses)
	}
	if cfg.cacheStats {
		pHits, pMisses := session.Stats()
		printCacheStats(errW, "session-pass", artifact.TierStats{Hits: pHits, Misses: pMisses})
		for _, tier := range exp.CacheTiers() {
			printCacheStats(errW, tier.Name, tier.Stats)
		}
		// Peak-heap rows: HeapAlloc high-water per engine stage, sampled at
		// stage boundaries while -cache-stats had sampling enabled. The
		// streaming memory claim is checked against these (and the
		// stream-segment tier's resident_bytes) rather than a profiler.
		for _, sp := range heapwatch.Report() {
			fmt.Fprintf(errW, "cache-stats heap:%-11s peak_heap_bytes=%d\n", sp.Stage, sp.Peak)
		}
	}
	if cfg.cacheStatsJSON {
		pHits, pMisses := session.Stats()
		if err := serve.WriteCacheStatsJSON(errW, serve.SnapshotCacheStats(pHits, pMisses, true)); err != nil {
			return err
		}
	}
	return nil
}

// tierBoundUsage is the -annotate-cache-mb help text, shared by the
// one-shot run and the daemon.
const tierBoundUsage = "resident bound in MiB for each in-memory engine tier: annotated streams with their flat views, bucket streams, model counts, curves (0 = unbounded)"

// setTierBounds bounds the resident bytes of every bounded in-memory
// engine tier; the trace memo stays unbounded.
func setTierBounds(bytes uint64) {
	sim.SetAnnotatedCacheBound(bytes)
	sim.SetTallyCacheDefaultBound(bytes)
	exp.SetCurveCacheDefaultBound(bytes)
	exp.SetModelCacheDefaultBound(bytes)
}

// printCacheStats renders one cache tier's counters for the -cache-stats
// flag: the uniform hit/miss/eviction/resident quad plus the health columns
// (verify failures, operation errors, the degraded flag), which only the
// checksummed disk tier can move.
func printCacheStats(errW io.Writer, name string, s artifact.TierStats) {
	fmt.Fprintf(errW, "cache-stats %-16s hits=%d misses=%d evictions=%d resident_bytes=%d verify_fails=%d op_errors=%d degraded=%t\n",
		name, s.Hits, s.Misses, s.Evictions, s.ResidentBytes, s.VerifyFails, s.OpErrors, s.Degraded)
}
