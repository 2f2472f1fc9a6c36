// Package sim wires the pieces together: it replays branch traces through
// a predictor and a confidence mechanism, accumulating the per-bucket
// statistics the analysis layer turns into the paper's curves and tables.
package sim

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Result summarises one mechanism run over one trace.
type Result struct {
	// Benchmark names the workload (empty for ad hoc traces).
	Benchmark string
	// Branches and Misses count dynamic branches and mispredictions.
	Branches, Misses uint64
	// Buckets holds per-bucket confidence statistics.
	Buckets analysis.BucketStats

	// digest, when attached by SuiteResult.MemoizeDigests, is shared by
	// every copy of the run and holds its Digest once computed.
	digest *digestMemo
}

// digestMemo is one run's lazily computed tally digest.
type digestMemo struct {
	once sync.Once
	sum  [sha256.Size]byte
}

// digestsComputed counts run digests hashed by Digest; see
// DigestsComputed.
var digestsComputed atomic.Uint64

// DigestsComputed reports how many run tally digests this process has
// hashed. Only tests read it, to pin that warm paths hash nothing.
func DigestsComputed() uint64 { return digestsComputed.Load() }

// Digest returns the content hash of the run's tallies,
// analysis.HashRun(r.Buckets). A run whose suite pass went through
// SuiteResult.MemoizeDigests hashes at most once across all its copies;
// any other run hashes on every call.
func (r Result) Digest() [sha256.Size]byte {
	if r.digest == nil {
		return hashRun(r.Buckets)
	}
	r.digest.once.Do(func() { r.digest.sum = hashRun(r.Buckets) })
	return r.digest.sum
}

func hashRun(bs analysis.BucketStats) [sha256.Size]byte {
	digestsComputed.Add(1)
	return analysis.HashRun(bs)
}

// MissRate returns the run's misprediction rate.
func (r Result) MissRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Branches)
}

// Run replays src through pred and mech following the paper's per-branch
// protocol: predict, read the confidence bucket, resolve, then train both
// structures with the outcome.
func Run(src trace.Source, pred predictor.Predictor, mech core.Mechanism) (Result, error) {
	var res Result
	acc := newBucketAccum()
	for {
		r, err := src.Next()
		if err == io.EOF {
			res.Buckets = acc.stats()
			return res, nil
		}
		if err != nil {
			res.Buckets = acc.stats()
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		incorrect := pred.Predict(r) != r.Taken
		acc.add(mech.Bucket(r), incorrect)
		pred.Update(r)
		mech.Update(r, incorrect)
		res.Branches++
		if incorrect {
			res.Misses++
		}
	}
}

// PredictOnly measures a predictor's misprediction rate without any
// confidence mechanism.
func PredictOnly(src trace.Source, pred predictor.Predictor) (Result, error) {
	return Run(src, pred, nullMech{})
}

// nullMech is a single-bucket mechanism used when only predictor accuracy
// is of interest.
type nullMech struct{}

func (nullMech) Bucket(trace.Record) uint64 { return 0 }
func (nullMech) Update(trace.Record, bool)  {}
func (nullMech) Reset()                     {}
func (nullMech) Name() string               { return "null" }

// EstimatorResult is the joint confusion summary of an online estimator
// run: how branches and mispredictions split across the high- and
// low-confidence sets.
type EstimatorResult struct {
	Benchmark string
	Branches  uint64
	Misses    uint64
	Low       uint64 // branches classified low confidence
	LowMisses uint64 // mispredictions among them
}

// High returns the number of high-confidence branches.
func (e EstimatorResult) High() uint64 { return e.Branches - e.Low }

// HighMisses returns the mispredictions escaping into the high set.
func (e EstimatorResult) HighMisses() uint64 { return e.Misses - e.LowMisses }

// LowFrac returns the fraction of branches classified low confidence.
func (e EstimatorResult) LowFrac() float64 {
	if e.Branches == 0 {
		return 0
	}
	return float64(e.Low) / float64(e.Branches)
}

// Coverage returns the fraction of all mispredictions captured by the low
// set — the paper's headline metric for a confidence configuration.
func (e EstimatorResult) Coverage() float64 {
	if e.Misses == 0 {
		return 0
	}
	return float64(e.LowMisses) / float64(e.Misses)
}

// PVN returns the predictive value of a negative (low-confidence) signal:
// the misprediction rate inside the low set.
func (e EstimatorResult) PVN() float64 {
	if e.Low == 0 {
		return 0
	}
	return float64(e.LowMisses) / float64(e.Low)
}

// Confusion returns the full 2x2 quadrant with the standard
// SENS/SPEC/PVP/PVN metrics of the follow-on literature.
func (e EstimatorResult) Confusion() analysis.Confusion {
	return analysis.Confusion{
		HighCorrect:   e.High() - e.HighMisses(),
		HighIncorrect: e.HighMisses(),
		LowCorrect:    e.Low - e.LowMisses,
		LowIncorrect:  e.LowMisses,
	}
}

// RunEstimator replays src through pred and the online estimator,
// recording the confusion summary.
func RunEstimator(src trace.Source, pred predictor.Predictor, est *core.Estimator) (EstimatorResult, error) {
	var res EstimatorResult
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Branches++
		if !confident {
			res.Low++
		}
		if incorrect {
			res.Misses++
			if !confident {
				res.LowMisses++
			}
		}
	}
}

// SuiteConfig controls a whole-suite run.
type SuiteConfig struct {
	// Branches is the per-benchmark dynamic branch budget; 0 uses each
	// benchmark's default.
	Branches uint64
	// Specs selects the benchmarks (default: the standard suite).
	Specs []workload.Spec
	// Source, when non-nil, supplies the trace for each benchmark instead
	// of spec.FiniteSource — typically a materialized-trace cache. It must
	// produce a stream identical to the streaming walk for the same
	// (spec, branches) and be safe for concurrent calls.
	Source func(spec workload.Spec, branches uint64) (trace.Source, error)
	// Buffer, when non-nil, supplies the materialized replay buffer the
	// two-stage engine (RunSuiteAnnotated) annotates and flattens. Nil
	// falls back to the process-wide workload.Materialize cache. It must be
	// deterministic per (spec, branches) and safe for concurrent calls.
	Buffer func(spec workload.Spec, branches uint64) (*trace.ReplayBuffer, error)
	// NoTally disables the stage-3 tally engine: factorable mechanisms are
	// replayed per-variant on the stage-2 path instead of being served from
	// geometry-keyed bucket streams. Results are byte-identical either way;
	// the switch exists for A/B benchmarking and fault isolation.
	NoTally bool
	// SegmentBranches, when non-zero, switches RunSuiteAnnotated to the
	// segmented streaming engine: each benchmark's trace is walked in
	// segments of this many branches with annotation of the next segment
	// overlapping tallying of the current one, keeping resident memory flat
	// at any horizon. Results are byte-identical to the monolithic engine.
	// Zero (the default) keeps the monolithic materialize-whole path.
	SegmentBranches uint64
}

func (c SuiteConfig) specs() []workload.Spec {
	if c.Specs != nil {
		return c.Specs
	}
	return workload.Suite()
}

func (c SuiteConfig) source(spec workload.Spec) (trace.Source, error) {
	if c.Source != nil {
		return c.Source(spec, c.Branches)
	}
	return spec.FiniteSource(c.Branches)
}

func (c SuiteConfig) buffer(spec workload.Spec) (*trace.ReplayBuffer, error) {
	if c.Buffer != nil {
		return c.Buffer(spec, c.Branches)
	}
	return workload.Materialize(spec, c.Branches)
}

// SuiteResult aggregates per-benchmark results in suite order.
type SuiteResult struct {
	Runs []Result
}

// Stats returns the per-benchmark bucket statistics in suite order, ready
// for analysis compositing.
func (s SuiteResult) Stats() []analysis.BucketStats {
	out := make([]analysis.BucketStats, len(s.Runs))
	for i, r := range s.Runs {
		out[i] = r.Buckets
	}
	return out
}

// MemoizeDigests attaches a fresh digest memo to every run, so each run's
// Digest is hashed at most once across the runs of s and every copy taken
// from them (ByName included). It writes s.Runs in place, so call it
// before the result is shared, and only on runs whose tallies are never
// mutated afterwards.
func (s SuiteResult) MemoizeDigests() {
	for i := range s.Runs {
		s.Runs[i].digest = new(digestMemo)
	}
}

// CompositeMissRate returns the equal-weight average misprediction rate,
// the paper's composite accuracy metric (§1.2).
func (s SuiteResult) CompositeMissRate() float64 {
	if len(s.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.Runs {
		sum += r.MissRate()
	}
	return sum / float64(len(s.Runs))
}

// ByName returns the named benchmark's run.
func (s SuiteResult) ByName(name string) (Result, error) {
	for _, r := range s.Runs {
		if r.Benchmark == name {
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("sim: no run for benchmark %q", name)
}

// RunSuite replays every benchmark through fresh predictor and mechanism
// instances (tables are rebuilt per benchmark, as in the paper's per-trace
// simulations) and collects per-benchmark results in suite order.
//
// Benchmarks run concurrently: each run owns its source, predictor and
// mechanism, so parallelism cannot perturb results — the output is
// byte-identical to a serial sweep, just several times faster on the
// multi-run experiments. newPred and newMech are invoked from multiple
// goroutines and must be safe for concurrent calls (pure constructors
// returning fresh instances are; closures over shared mutable state are
// not). Per-benchmark failures are aggregated with errors.Join.
func RunSuite(cfg SuiteConfig, newPred func() predictor.Predictor, newMech func() core.Mechanism) (SuiteResult, error) {
	res, err := RunSuiteBatch(cfg, newPred, []func() core.Mechanism{newMech})
	if err != nil {
		return SuiteResult{}, err
	}
	return res[0], nil
}
