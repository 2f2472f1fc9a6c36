package sim

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Single-pass batched simulation. Confidence mechanisms are passive
// observers of the (PC, history, predicted, outcome) stream: they never
// influence the predictor or each other. RunBatch exploits that to walk one
// trace through one predictor instance while training any number of
// mechanisms, so N mechanism studies over the same predictor configuration
// cost one predictor simulation instead of N. It is the only straight-line
// walk: Run is RunBatch with one mechanism.

// RunBatch replays src through pred once, feeding every per-branch event to
// each mechanism. The returned results are index-aligned with mechs and
// byte-identical to len(mechs) separate Run calls over the same trace: each
// mechanism observes exactly the Run protocol (Bucket before any update,
// then Update with the outcome). A predictor-coupled mechanism
// (core.StateCoupled) reads the predictor's pre-update state
// (predictor.StateAnnotator) through BucketWithState; if pred exposes no
// state, RunBatch fails before reading src. On a source error the results
// so far are returned with the error.
func RunBatch(src trace.Source, pred predictor.Predictor, mechs []core.Mechanism) ([]Result, error) {
	if err := checkStateLane(pred.Name(), func() predictor.Predictor { return pred }, mechs); err != nil {
		return nil, err
	}
	annPred, _ := pred.(predictor.StateAnnotator)
	coupled := make([]core.StateCoupled, len(mechs))
	anyCoupled := false
	for i, m := range mechs {
		coupled[i], _ = m.(core.StateCoupled)
		anyCoupled = anyCoupled || coupled[i] != nil
	}
	results := make([]Result, len(mechs))
	accums := make([]*bucketAccum, len(mechs))
	for i := range accums {
		accums[i] = newBucketAccum()
	}
	finish := func() {
		for i := range results {
			results[i].Buckets = accums[i].stats()
		}
	}
	for {
		r, err := src.Next()
		if err == io.EOF {
			finish()
			return results, nil
		}
		if err != nil {
			finish()
			return results, fmt.Errorf("sim: reading trace: %w", err)
		}
		incorrect := pred.Predict(r) != r.Taken
		var st uint8
		if anyCoupled {
			st = annPred.AnnotationState(r)
		}
		// Buckets are read before the predictor trains, so
		// predictor-coupled mechanisms see the pre-update state.
		for i, m := range mechs {
			if coupled[i] != nil {
				accums[i].add(coupled[i].BucketWithState(r, st), incorrect)
			} else {
				accums[i].add(m.Bucket(r), incorrect)
			}
		}
		pred.Update(r)
		for i, m := range mechs {
			m.Update(r, incorrect)
			results[i].Branches++
			if incorrect {
				results[i].Misses++
			}
		}
	}
}

// parallelism bounds concurrently running per-benchmark simulation units
// across all suite runs in the process (the scheduler's work unit is one
// benchmark × predictor-pass). The default tracks the machine.
var (
	parallelismMu sync.Mutex
	parallelism   = runtime.NumCPU()
	simSlots      chan struct{}
)

// SetParallelism bounds the number of simulation units — a monolithic
// suite call's mechanism chunks, a segmented call's per-benchmark
// pipelines — running at once across every RunSuiteAnnotated call. n < 1
// resets to runtime.NumCPU(). Parallelism never affects results, only
// wall-clock time.
//
// Resizing is safe mid-suite: the channel is rebuilt eagerly under the lock,
// so units acquired before the resize release into the channel they drew
// from (each acquire closes over its channel) while new acquisitions see the
// new width immediately. Momentarily the two pools coexist, so in-flight
// work may briefly exceed the smaller of the two bounds — never the sum
// growing unboundedly — and the race detector sees only channel operations.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	parallelismMu.Lock()
	parallelism = n
	simSlots = make(chan struct{}, n)
	parallelismMu.Unlock()
}

// slotChan returns the current slot channel, building it on first use.
func slotChan() chan struct{} {
	parallelismMu.Lock()
	if simSlots == nil {
		simSlots = make(chan struct{}, parallelism)
	}
	slots := simSlots
	parallelismMu.Unlock()
	return slots
}

// Parallelism reports the bound SetParallelism configured, for schedulers
// sizing their fan-out.
func Parallelism() int {
	parallelismMu.Lock()
	defer parallelismMu.Unlock()
	return parallelism
}

// acquireSlot blocks until a simulation slot is free.
func acquireSlot() func() {
	slots := slotChan()
	slots <- struct{}{}
	return func() { <-slots }
}

// DeriveEstimator reconstructs the confusion summary an online estimator
// pass (a core.Estimator walked beside the predictor) would have produced,
// from a mechanism run's per-bucket statistics. The equivalence is exact:
// an estimator's confidence signal is a pure function of the bucket read
// before update, which is precisely what the bucket statistics tally, so
// the low/high split is a partition of the bucket tallies.
func DeriveEstimator(res Result, reduce core.Reducer) EstimatorResult {
	out := EstimatorResult{
		Benchmark: res.Benchmark,
		Branches:  res.Branches,
		Misses:    res.Misses,
	}
	for _, t := range res.Buckets {
		if !reduce.Confident(t.Bucket) {
			out.Low += t.Events
			out.LowMisses += t.Misses
		}
	}
	return out
}

// DeriveMulti reconstructs a multi-level estimator run from a
// counter-mechanism run, partitioning bucket tallies by the ascending
// threshold ladder exactly as core.MultiEstimator.Level does online. The
// buckets ascend, so their levels do too: one walk up the histogram and
// the ladder together.
func DeriveMulti(res Result, thresholds []uint64) MultiResult {
	out := MultiResult{Benchmark: res.Benchmark, Levels: make([]LevelTally, len(thresholds)+1)}
	level := 0 // thresholds at or below the current bucket
	for _, t := range res.Buckets {
		for level < len(thresholds) && t.Bucket >= thresholds[level] {
			level++
		}
		out.Levels[level].Branches += t.Events
		out.Levels[level].Misses += t.Misses
	}
	return out
}
