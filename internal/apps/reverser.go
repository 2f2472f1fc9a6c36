package apps

import (
	"fmt"
	"io"
	"slices"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The branch prediction reverser (§1, application 4): if the confidence in
// a prediction can be determined to be below 50%, the prediction should be
// inverted. Whether any bucket actually exceeds 50% misprediction rate is
// an empirical question — the paper's Table 1 shows the hottest resetting-
// counter bucket at 37.6%, so a naive "reverse the lowest bucket" hurts.
// ProfileReverser therefore derives the reversal set from a profiling pass:
// only buckets measured above the threshold get reversed.

// ReverserResult compares a predictor with and without reversal.
type ReverserResult struct {
	Branches       uint64
	BaseMisses     uint64 // plain predictor
	ReversedMisses uint64 // with reversal applied
	Reversals      uint64 // predictions inverted
	GoodReversals  uint64 // inversions that fixed a misprediction
}

// Delta returns the change in misprediction rate (negative = improvement).
func (r ReverserResult) Delta() float64 {
	if r.Branches == 0 {
		return 0
	}
	return (float64(r.ReversedMisses) - float64(r.BaseMisses)) / float64(r.Branches)
}

// tallyBuckets walks src through pred and mech and tallies each bucket's
// events and mispredictions — the (bucket, miss) lanes a reverser reads,
// folded into a histogram as they stream by. On a source failure it
// returns the tallies so far with the error.
func tallyBuckets(src trace.Source, pred predictor.Predictor, mech core.Mechanism) (analysis.BucketStats, error) {
	tm := make(analysis.TallyMap)
	for {
		r, err := src.Next()
		if err == io.EOF {
			return tm.Stats(), nil
		}
		if err != nil {
			return tm.Stats(), err
		}
		incorrect := pred.Predict(r) != r.Taken
		tm.Add(mech.Bucket(r), incorrect)
		pred.Update(r)
		mech.Update(r, incorrect)
	}
}

// ReverseSet returns the buckets of a profile histogram whose
// misprediction rate exceeds threshold (0.5 for a true reverser), in
// ascending order. A bucket needs a minimum population, so a handful of
// unlucky events cannot nominate it. The set may be empty — the paper's
// data suggests it often is for well-tuned predictors, which is itself a
// reproducible finding.
func ReverseSet(profile analysis.BucketStats, threshold float64) []uint64 {
	var set []uint64
	for _, t := range profile {
		if t.Events >= 64 && t.Rate() > threshold {
			set = append(set, t.Bucket)
		}
	}
	return set
}

// ProfileReverseSet runs a profiling pass and returns the mechanism buckets
// whose misprediction rate exceeds threshold (see ReverseSet).
func ProfileReverseSet(src trace.Source, pred predictor.Predictor, mech core.Mechanism, threshold float64) ([]uint64, error) {
	stats, err := tallyBuckets(src, pred, mech)
	if err != nil {
		return nil, err
	}
	return ReverseSet(stats, threshold), nil
}

// EvalReverser evaluates a reversal set over a trace's histogram of
// (bucket, events, mispredictions). The tables train on the original
// prediction's correctness — the reverser consumes the confidence signal
// but is not part of the training loop (§1's architecture, Fig. 1) — so
// the histogram determines every count: each reversed branch flips from
// miss to hit or hit to miss. The set may hold repeats and come in any
// order; sorted, it is walked together with the histogram.
func EvalReverser(eval analysis.BucketStats, reverseSet []uint64) ReverserResult {
	set := slices.Clone(reverseSet)
	slices.Sort(set)
	var res ReverserResult
	for _, t := range eval {
		res.Branches += t.Events
		res.BaseMisses += t.Misses
		for len(set) > 0 && set[0] < t.Bucket {
			set = set[1:]
		}
		if len(set) > 0 && set[0] == t.Bucket {
			res.Reversals += t.Events
			res.GoodReversals += t.Misses
			res.ReversedMisses += t.Events - t.Misses
		} else {
			res.ReversedMisses += t.Misses
		}
	}
	return res
}

// RunReverser replays src, inverting every prediction whose confidence
// bucket is in reverseSet, and reports both baselines. The predictor and
// mechanism must be fresh instances (the profiling pass has its own).
func RunReverser(src trace.Source, pred predictor.Predictor, mech core.Mechanism, reverseSet []uint64) (ReverserResult, error) {
	stats, err := tallyBuckets(src, pred, mech)
	return EvalReverser(stats, reverseSet), err
}

// ReverserStudy profiles on one seed of a benchmark and evaluates on the
// benchmark itself, returning the result and the reversal set size.
func ReverserStudy(profileSrc, evalSrc trace.Source, newPred func() predictor.Predictor, newMech func() core.Mechanism, threshold float64) (ReverserResult, int, error) {
	set, err := ProfileReverseSet(profileSrc, newPred(), newMech(), threshold)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: profiling reverser: %w", err)
	}
	res, err := RunReverser(evalSrc, newPred(), newMech(), set)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: evaluating reverser: %w", err)
	}
	return res, len(set), nil
}
