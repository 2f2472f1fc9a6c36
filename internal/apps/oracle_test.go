package apps

import (
	"fmt"
	"io"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The oracles: the pre-lane models, kept verbatim (renamed only) as the
// reference every lane-fed model is property-tested against. They walk a
// live predictor and estimator per branch.

// RunDualPath replays src through pred and est, forking a second path for
// every low-confidence prediction when a thread slot is free. A covered
// misprediction costs nothing beyond its fork; an uncovered one pays the
// full penalty.
func oracleRunDualPath(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg DualPathConfig) (DualPathResult, error) {
	if cfg.MaxThreads < 1 {
		return DualPathResult{}, fmt.Errorf("apps: MaxThreads must be >= 1, got %d", cfg.MaxThreads)
	}
	var res DualPathResult
	// busy[i] counts remaining branches until the occupying fork resolves.
	busy := make([]int, cfg.MaxThreads-1)
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		// Age outstanding forks.
		for i := range busy {
			if busy[i] > 0 {
				busy[i]--
			}
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)

		res.Branches++
		forked := false
		if !confident {
			for i := range busy {
				if busy[i] == 0 {
					busy[i] = cfg.ResolveDistance
					forked = true
					break
				}
			}
			if !forked {
				res.DeniedForks++
			}
		}
		if forked {
			res.Forks++
			res.DualCycles += cfg.ForkPenalty
		}
		if incorrect {
			res.Misses++
			res.BaseCycles += cfg.MispredictPenalty
			if forked {
				res.CoveredMiss++
			} else {
				res.DualCycles += cfg.MispredictPenalty
			}
		}
	}
}

// oraclePending tracks one unresolved branch in the model's window.
type oraclePending struct {
	remaining int
	lowConf   bool
	mispred   bool
}

// RunGating replays src through pred and est under the gating policy.
func oracleRunGating(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg GateConfig) (GateResult, error) {
	if cfg.ResolveDistance < 1 {
		return GateResult{}, fmt.Errorf("apps: ResolveDistance must be >= 1, got %d", cfg.ResolveDistance)
	}
	if cfg.Threshold < 0 {
		return GateResult{}, fmt.Errorf("apps: Threshold must be >= 0, got %d", cfg.Threshold)
	}
	var res GateResult
	var window []oraclePending
	lowInFlight, wrongPathDepth := 0, 0
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		// Resolve aged branches.
		kept := window[:0]
		for _, p := range window {
			p.remaining--
			if p.remaining <= 0 {
				if p.lowConf {
					lowInFlight--
				}
				if p.mispred {
					wrongPathDepth--
				}
				continue
			}
			kept = append(kept, p)
		}
		window = kept

		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)

		work := uint64(r.Gap) + 1
		gated := cfg.Threshold > 0 && lowInFlight >= cfg.Threshold
		switch {
		case gated:
			// Fetch deferred: neither useful nor wasted work this slot.
			res.Stalled += work
		case wrongPathDepth > 0:
			// Fetching past an unresolved misprediction: squashed later.
			res.Wasted += work
		default:
			res.Useful += work
		}

		res.Branches++
		if incorrect {
			res.Misses++
		}
		p := oraclePending{remaining: cfg.ResolveDistance, lowConf: !confident, mispred: incorrect && !gated}
		if p.lowConf {
			lowInFlight++
		}
		if p.mispred {
			wrongPathDepth++
		}
		window = append(window, p)
	}
}

// oracleGateState is one threshold's private bookkeeping in a batched run.
type oracleGateState struct {
	cfg            GateConfig
	res            GateResult
	window         []oraclePending
	lowInFlight    int
	wrongPathDepth int
}

// RunGatingBatch evaluates several gate configurations over a single trace
// walk through one shared predictor and estimator. The gate only defers
// fetch — it never alters what the predictor or estimator observe — so the
// (confident, incorrect) stream is the same for every threshold and each
// configuration's result is byte-identical to its solo RunGating run.
func oracleRunGatingBatch(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfgs []GateConfig) ([]GateResult, error) {
	states := make([]oracleGateState, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.ResolveDistance < 1 {
			return nil, fmt.Errorf("apps: ResolveDistance must be >= 1, got %d", cfg.ResolveDistance)
		}
		if cfg.Threshold < 0 {
			return nil, fmt.Errorf("apps: Threshold must be >= 0, got %d", cfg.Threshold)
		}
		states[i].cfg = cfg
	}
	finish := func() []GateResult {
		out := make([]GateResult, len(states))
		for i := range states {
			out[i] = states[i].res
		}
		return out
	}
	for {
		r, err := src.Next()
		if err == io.EOF {
			return finish(), nil
		}
		if err != nil {
			return finish(), err
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		work := uint64(r.Gap) + 1

		for i := range states {
			st := &states[i]
			kept := st.window[:0]
			for _, p := range st.window {
				p.remaining--
				if p.remaining <= 0 {
					if p.lowConf {
						st.lowInFlight--
					}
					if p.mispred {
						st.wrongPathDepth--
					}
					continue
				}
				kept = append(kept, p)
			}
			st.window = kept

			gated := st.cfg.Threshold > 0 && st.lowInFlight >= st.cfg.Threshold
			switch {
			case gated:
				st.res.Stalled += work
			case st.wrongPathDepth > 0:
				st.res.Wasted += work
			default:
				st.res.Useful += work
			}

			st.res.Branches++
			if incorrect {
				st.res.Misses++
			}
			p := oraclePending{remaining: st.cfg.ResolveDistance, lowConf: !confident, mispred: incorrect && !gated}
			if p.lowConf {
				st.lowInFlight++
			}
			if p.mispred {
				st.wrongPathDepth++
			}
			st.window = append(st.window, p)
		}
	}
}

// oracleoracleSMTThread is one hardware thread's workload: a trace source with its own
// predictor and confidence estimator (private tables per context).
type oracleSMTThread struct {
	Name string
	Src  trace.Source
	Pred predictor.Predictor
	Est  *core.Estimator

	next     *trace.Record // lookahead record
	done     bool
	squash   int // slots until a pending misprediction resolves
	wastedIn bool
}

// RunSMT drives the threads until any thread's trace ends (keeping thread
// loads comparable) or maxSlots fetch slots elapse.
func oracleRunSMT(threads []*oracleSMTThread, cfg SMTConfig, maxSlots uint64) (SMTResult, error) {
	if len(threads) == 0 {
		return SMTResult{}, fmt.Errorf("apps: RunSMT needs at least one thread")
	}
	if cfg.ResolveSlots < 1 {
		return SMTResult{}, fmt.Errorf("apps: ResolveSlots must be >= 1")
	}
	res := SMTResult{PerThreadUse: make([]uint64, len(threads))}
	// Prime lookaheads.
	for _, th := range threads {
		if err := th.advance(); err != nil {
			return res, err
		}
	}
	rr := 0
	for res.Slots < maxSlots {
		// Retire squash windows.
		for _, th := range threads {
			if th.squash > 0 {
				th.squash--
			}
		}
		pick := -1
		// Round-robin scan; the gated policy passes over threads whose
		// next prediction is low confidence (or which are mid-squash).
		for scan := 0; scan < len(threads); scan++ {
			i := (rr + scan) % len(threads)
			th := threads[i]
			if th.done || th.squash > 0 {
				continue
			}
			if cfg.Gated && !th.confident() {
				res.GatedSkips++
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			// All gated or squashed: fall back to any runnable thread so
			// the machine never idles on a full workload.
			for scan := 0; scan < len(threads); scan++ {
				i := (rr + scan) % len(threads)
				if !threads[i].done && threads[i].squash == 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// Everything mid-squash: burn a slot.
			res.Slots++
			continue
		}
		th := threads[pick]
		rr = (pick + 1) % len(threads)
		r := *th.next

		incorrect := th.Pred.Predict(r) != r.Taken
		th.Pred.Update(r)
		th.Est.Update(r, incorrect)

		fetched := uint64(r.Gap) + 1
		if incorrect {
			// The branch itself is useful; what follows until resolution
			// is wasted. Approximate the squashed run as the next
			// ResolveSlots slots of this thread's fetch.
			res.Useful += 1
			res.Wasted += fetched - 1
			th.squash = cfg.ResolveSlots
		} else {
			res.Useful += fetched
			res.PerThreadUse[pick] += fetched
		}
		res.Slots++
		if err := th.advance(); err != nil {
			return res, err
		}
		if th.done {
			return res, nil // stop at first exhausted thread
		}
	}
	return res, nil
}

// advance pulls the thread's next record into the lookahead.
func (t *oracleSMTThread) advance() error {
	r, err := t.Src.Next()
	if err == io.EOF {
		t.done = true
		t.next = nil
		return nil
	}
	if err != nil {
		return err
	}
	t.next = &r
	return nil
}

// confident reports the estimator's signal for the lookahead branch.
func (t *oracleSMTThread) confident() bool {
	if t.next == nil {
		return false
	}
	return t.Est.Confident(*t.next)
}

// CompareHybrids replays src through all four predictors in lockstep.
// newA/newB build the component predictors; the same constructors feed the
// tournament and the solo baselines so every structure sees identical
// geometry.
func oracleCompareHybrids(src trace.Source, newA, newB func() predictor.Predictor, chooserBits uint) (HybridComparison, error) {
	mkEst := func() core.Mechanism {
		return core.NewCounterTable(core.CounterConfig{Kind: core.Resetting, Scheme: core.IndexPCxorBHR, TableBits: 12, HistoryBits: 12})
	}
	conf := NewConfidenceHybrid(newA(), newB(), mkEst(), mkEst(), true)
	tour := predictor.NewTournament(newA(), newB(), chooserBits)
	soloA, soloB := newA(), newB()

	var res HybridComparison
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		res.Branches++
		if conf.Predict(r) != r.Taken {
			res.ConfHybrid++
		}
		if tour.Predict(r) != r.Taken {
			res.Tournament++
		}
		if soloA.Predict(r) != r.Taken {
			res.SoloA++
		}
		if soloB.Predict(r) != r.Taken {
			res.SoloB++
		}
		conf.Update(r)
		tour.Update(r)
		soloA.Update(r)
		soloB.Update(r)
	}
}

// oracleProfileReverseSet runs a profiling pass and returns the mechanism buckets
// whose misprediction rate exceeds threshold (0.5 for a true reverser).
// The returned set may be empty — the paper's data suggests it often is
// for well-tuned predictors, which is itself a reproducible finding.
func oracleProfileReverseSet(src trace.Source, pred predictor.Predictor, mech core.Mechanism, threshold float64) ([]uint64, error) {
	stats := make(analysis.TallyMap)
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		incorrect := pred.Predict(r) != r.Taken
		stats.Add(mech.Bucket(r), incorrect)
		pred.Update(r)
		mech.Update(r, incorrect)
	}
	var set []uint64
	for b, t := range stats {
		// Require a minimum population so a handful of unlucky events
		// cannot nominate a bucket.
		if t.Events >= 64 && t.Rate() > threshold {
			set = append(set, b)
		}
	}
	return set, nil
}

// RunReverser replays src, inverting every prediction whose confidence
// bucket is in reverseSet, and reports both baselines. The predictor and
// mechanism must be fresh instances (the profiling pass has its own).
func oracleRunReverser(src trace.Source, pred predictor.Predictor, mech core.Mechanism, reverseSet []uint64) (ReverserResult, error) {
	rev := make(map[uint64]struct{}, len(reverseSet))
	for _, b := range reverseSet {
		rev[b] = struct{}{}
	}
	var res ReverserResult
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		p := pred.Predict(r)
		_, reverse := rev[mech.Bucket(r)]
		finalPred := p
		if reverse {
			finalPred = !p
			res.Reversals++
		}
		baseIncorrect := p != r.Taken
		finalIncorrect := finalPred != r.Taken
		if reverse && baseIncorrect && !finalIncorrect {
			res.GoodReversals++
		}
		// Tables train on the original prediction's correctness: the
		// reverser is a consumer of the confidence signal, not part of
		// the training loop (§1's architecture, Fig. 1).
		pred.Update(r)
		mech.Update(r, baseIncorrect)
		res.Branches++
		if baseIncorrect {
			res.BaseMisses++
		}
		if finalIncorrect {
			res.ReversedMisses++
		}
	}
}

// ReverserStudy profiles on one seed of a benchmark and evaluates on the
// benchmark itself, returning the result and the reversal set size.
func oracleReverserStudy(profileSrc, evalSrc trace.Source, newPred func() predictor.Predictor, newMech func() core.Mechanism, threshold float64) (ReverserResult, int, error) {
	set, err := oracleProfileReverseSet(profileSrc, newPred(), newMech(), threshold)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: profiling reverser: %w", err)
	}
	res, err := oracleRunReverser(evalSrc, newPred(), newMech(), set)
	if err != nil {
		return ReverserResult{}, 0, fmt.Errorf("apps: evaluating reverser: %w", err)
	}
	return res, len(set), nil
}
