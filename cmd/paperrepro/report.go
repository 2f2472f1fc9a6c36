package main

import (
	"fmt"
	"io"
	"os"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/heapwatch"
	"branchconf/internal/serve"
)

// reportConfig is one one-shot run: the request, the engine and store
// set-up, and where the output goes.
type reportConfig struct {
	req            serve.ReportRequest // built by requestFlags.request
	engine         engineConfig
	store          storeConfig
	shard          serve.Shard // run one shard and emit a partial report (zero = full report)
	progress       bool        // emit per-experiment progress to errW
	dataDir        string      // write each experiment's JSON and .dat files here ("" = none)
	cacheStats     bool        // print per-cache counters to errW at exit
	cacheStatsJSON bool        // print the same counters as JSON to errW at exit
}

// writeReport is the one-shot run: it configures the process-wide engine
// state (store, cache bounds, parallelism), builds the report through the
// same serve.BuildReport the daemon renders with — which is what makes a
// daemon-served report byte-identical to this path — and writes it to w.
func writeReport(w, errW io.Writer, cfg reportConfig) error {
	store, release, err := cfg.store.open()
	if err != nil {
		return err
	}
	defer release()
	cfg.engine.setup(cfg.cacheStats || cfg.cacheStatsJSON)
	_, segment, err := cfg.req.Validate()
	if err != nil {
		return err
	}
	session := exp.NewSession(cfg.req.SessionConfig(segment))
	opts := serve.BuildOptions{Parallel: cfg.engine.parallel, Now: now}
	if cfg.progress {
		opts.Progress = func(id string, elapsed float64) {
			fmt.Fprintf(errW, "%-20s done in %.1fs\n", id, elapsed)
		}
	}
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return err
		}
		opts.Output = func(out *exp.Output) error { return writeData(cfg.dataDir, out) }
	}
	var report []byte
	if cfg.shard.Count > 0 {
		// Shard mode: run this worker's slice of the selection and emit the
		// partial report — to w for file-based merges, and into the (possibly
		// remote) artifact store for store-based merges.
		p, err := serve.BuildPartial(session, cfg.req, opts, cfg.shard)
		if err != nil {
			return err
		}
		serve.PublishPartial(p)
		report = p.Encode()
	} else if report, err = serve.BuildReport(session, cfg.req, opts); err != nil {
		return err
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

	if cfg.cacheStats {
		printCacheStats(errW, "session-pass", session.PassStats())
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
		if err := serve.WriteCacheStatsJSON(errW, serve.SnapshotTierStats(session.PassStats(), true)); err != nil {
			return err
		}
	}
	return nil
}

// printCacheStats renders one cache tier's counters for the -cache-stats
// flag: the uniform hit/miss/eviction/resident quad plus the health columns
// (verify failures, operation errors, the degraded flag), which only the
// checksummed disk tier can move.
func printCacheStats(errW io.Writer, name string, s artifact.TierStats) {
	fmt.Fprintf(errW, "cache-stats %-16s hits=%d misses=%d evictions=%d resident_bytes=%d verify_fails=%d op_errors=%d degraded=%t\n",
		name, s.Hits, s.Misses, s.Evictions, s.ResidentBytes, s.VerifyFails, s.OpErrors, s.Degraded)
}
