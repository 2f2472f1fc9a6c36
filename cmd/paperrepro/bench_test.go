package main

import (
	"io"
	"runtime"
	"testing"

	"branchconf/internal/serve"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// benchReport runs writeReport over a fixed experiment subset at the given
// parallelism with a cold trace cache, the end-to-end unit the single-pass
// engine was built to speed up. The serial sub-benchmark stands in for the
// pre-engine pipeline shape (one experiment at a time); the parallel one is
// the shipped default.
func benchReport(b *testing.B, parallel int) {
	cfg := reportConfig{
		req: serve.ReportRequest{Branches: 50000, Only: []string{
			"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "thresholds",
		}},
		engine: engineConfig{parallel: parallel},
	}
	// One discarded warmup iteration: JIT-ish one-time costs (first GC
	// sizing, page faults on the trace buffers) land outside the timer.
	workload.TraceTier.Reset()
	if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		workload.TraceTier.Reset()
		b.StartTimer()
		if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperreproSerial(b *testing.B) { benchReport(b, 1) }

func BenchmarkPaperreproParallel(b *testing.B) { benchReport(b, runtime.NumCPU()) }

// figureMix is the multi-variant figure set: every experiment whose passes
// sweep mechanism variants over the shared predictor configs.
var figureMix = []string{"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11"}

// fullMix adds the derived tables and predictor-coupled experiments on top
// of the figures — a whole-report shape.
var fullMix = []string{
	"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "fig11",
	"thresholds", "multilevel", "strength",
}

// benchEngines times the suite engine on the given experiment mix. The
// trace cache is warmed outside the timer; the annotated and bucket-stream
// caches are reset per iteration unless warmAnnotated, so the cold case
// measures one report run from scratch and the warm case the incremental
// rerun (predictor evolution and bucket-stream builds skipped entirely on
// cache hits).
func benchEngines(b *testing.B, only []string, warmAnnotated bool, parallel int) {
	cfg := reportConfig{
		req:    serve.ReportRequest{Branches: 200000, Only: only},
		engine: engineConfig{parallel: parallel},
	}
	resetCaches := func() {
		sim.AnnotatedTier.Reset()
		sim.BucketTier.Reset()
	}
	// Warm the trace cache so no engine pays the synthetic walk; this also
	// serves as the discarded warmup iteration for one-time process costs.
	resetCaches()
	if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
		b.Fatal(err)
	}
	if !warmAnnotated {
		resetCaches()
	}
	b.Cleanup(resetCaches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warmAnnotated {
			b.StopTimer()
			resetCaches()
			b.StartTimer()
		}
		if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesTally is the cold engine: annotated streams, factorable
// variants served from geometry-keyed bucket streams, the rest replayed.
func BenchmarkEnginesTally(b *testing.B) { benchEngines(b, figureMix, false, 2) }

// BenchmarkEnginesTallyWarm is the fully warm rerun: annotated streams and
// bucket streams both cached, so factorable variants cost one histogram
// share each.
func BenchmarkEnginesTallyWarm(b *testing.B) { benchEngines(b, figureMix, true, 2) }

// The Full variants run the whole-report mix, adding the derived tables and
// the predictor-coupled strength experiment.
func BenchmarkEnginesFullTally(b *testing.B) { benchEngines(b, fullMix, false, 2) }

func BenchmarkEnginesFullTallyWarm(b *testing.B) { benchEngines(b, fullMix, true, 2) }

// BenchmarkReportWarmFloor measures the warm floor itself: every in-memory
// tier dropped per iteration (a fresh process, in effect), every stage
// artifact — traces, annotated streams, bucket streams, model counts,
// curves — served from a pre-populated disk store. The discarded warmup
// iteration is the cold run that fills the store.
func BenchmarkReportWarmFloor(b *testing.B) {
	cfg := reportConfig{
		req:    serve.ReportRequest{Branches: 50000}, // the whole report — cycle models included
		engine: engineConfig{parallel: 2},
		store:  storeConfig{dir: b.TempDir()},
	}
	resetEngineCaches()
	if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(resetEngineCaches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetEngineCaches()
		b.StartTimer()
		if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportStreaming runs the figure mix through the segmented
// streaming engine (segments well below the per-benchmark budget, no
// store), against BenchmarkEnginesTally's monolithic shape on the same mix
// and budget: the price of bounded resident memory when the whole trace
// would in fact have fit. The streaming suite path bypasses the in-memory
// materialize/annotated caches by construction, so only the curve/model
// memos need resetting for a cold iteration.
func BenchmarkReportStreaming(b *testing.B) {
	cfg := reportConfig{
		req:    serve.ReportRequest{Branches: 200000, Only: figureMix, SegmentBranches: 32768},
		engine: engineConfig{parallel: 2},
	}
	resetEngineCaches()
	if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(resetEngineCaches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetEngineCaches()
		b.StartTimer()
		if err := writeReport(io.Discard, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
