package exp

import (
	"strings"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// Lane-fed cycle models. Every application model consumes only each
// branch's gap, whether its prediction missed and, for a confidence
// policy, the estimator's bucket. The engine already memoizes all three:
// the flat trace view, the annotated stream's miss bits and the bucket
// stream of each counter-table geometry. So a model build reads its lanes
// from those tiers (sim.Lanes) — walking each (predictor, benchmark) pair
// at most once process-wide, shared with every suite pass — instead of
// re-walking a predictor and an estimator per model run.
//
// A segmented session holds no whole-trace lanes and no whole traces, so
// there the same machines are fed live (pipeline.LiveLanes) from the
// generator (Session.Source), one record at a time.

// laneSignal names the confidence signal a cycle model reads: none (no
// table), the perfect oracle, or a counter table read against a threshold
// (core.CounterReducer: low below thr).
type laneSignal struct {
	table  func() *core.CounterTable
	thr    uint64
	oracle bool
}

// paperSignal is the paper's recommended estimator at a threshold
// (core.PaperEstimator).
func paperSignal(thr uint64) laneSignal {
	return laneSignal{table: core.PaperResetting, thr: thr}
}

// modelLanes returns spec's lanes under pred and sig for one model run.
func (s *Session) modelLanes(spec workload.Spec, pred PredSpec, sig laneSignal) (*pipeline.Lanes, error) {
	var l *pipeline.Lanes
	if s.cfg.SegmentBranches > 0 {
		src, err := s.Source(spec)
		if err != nil {
			return nil, err
		}
		var est pipeline.ConfidenceSignal
		if sig.table != nil {
			est = core.NewEstimator(sig.table(), core.CounterReducer{Threshold: sig.thr})
		}
		l = pipeline.LiveLanes(src, pred.New(), est)
	} else {
		var fm core.Factorable
		if sig.table != nil {
			fm = sig.table()
		}
		flat, ann, bs, err := sim.Lanes(s.suiteConfig(), spec, pred.Key, pred.New, fm)
		if err != nil {
			return nil, err
		}
		var low []uint64
		if bs != nil {
			low = bs.Below(sig.thr)
		}
		l = pipeline.NewLanes(flat.Records(), ann.MissWords(), low)
	}
	if sig.oracle {
		l.Oracle()
	}
	return l, nil
}

// suiteName names a benchmark list in model keys.
func suiteName(specs []workload.Spec) string {
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	return strings.Join(names, "+")
}

// suiteModel serves one model configuration's count vectors for the whole
// suite as a single model-tier record: per benchmark in suite order, per
// counts from run. A cold build runs every benchmark; a warm one reads one
// record instead of one per benchmark.
func (s *Session) suiteModel(model, params string, per int, run func(spec workload.Spec) ([]uint64, error)) ([][]uint64, error) {
	specs := workload.Suite()
	counts, err := s.modelCounts(modelKey(model, suiteName(specs), s.Branches(), params), per*len(specs), func() ([]uint64, error) {
		out := make([]uint64, 0, per*len(specs))
		for _, spec := range specs {
			c, err := run(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, c...)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]uint64, len(specs))
	for i := range rows {
		rows[i] = counts[i*per : (i+1)*per]
	}
	return rows, nil
}

// runPipeline runs the gated-fetch machine over spec's gshare-4K lanes.
func (s *Session) runPipeline(spec workload.Spec, sig laneSignal, cfg pipeline.Config) ([]uint64, error) {
	l, err := s.modelLanes(spec, predGshare4K, sig)
	if err != nil {
		return nil, err
	}
	st, err := pipeline.RunLanes(l, cfg)
	if err != nil {
		return nil, err
	}
	return packPipeStats(st), nil
}

// runPipeDual runs the cycle-level dual-path machine over spec's
// gshare-4K lanes.
func (s *Session) runPipeDual(spec workload.Spec, sig laneSignal, cfg pipeline.DualPathConfig) ([]uint64, error) {
	l, err := s.modelLanes(spec, predGshare4K, sig)
	if err != nil {
		return nil, err
	}
	st, err := pipeline.RunDualPathLanes(l, cfg)
	if err != nil {
		return nil, err
	}
	return packDualStats(st), nil
}

// runAppDual runs the branch-granularity dual-path model over spec's
// lanes under pred and sig.
func (s *Session) runAppDual(spec workload.Spec, pred PredSpec, sig laneSignal, cfg apps.DualPathConfig) ([]uint64, error) {
	l, err := s.modelLanes(spec, pred, sig)
	if err != nil {
		return nil, err
	}
	res, err := apps.RunDualPathLanes(l, cfg)
	if err != nil {
		return nil, err
	}
	return packAppDual(res), nil
}

// runGating runs a batch of gate configurations over spec's gshare-4K
// lanes under the paper estimator at threshold 8.
func (s *Session) runGating(spec workload.Spec, cfgs []apps.GateConfig) ([]uint64, error) {
	l, err := s.modelLanes(spec, predGshare4K, paperSignal(8))
	if err != nil {
		return nil, err
	}
	results, err := apps.RunGatingLanes(l, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, 5*len(results))
	for _, r := range results {
		out = append(out, r.Branches, r.Misses, r.Useful, r.Wasted, r.Stalled)
	}
	return out, nil
}

// runSMT runs the SMT fetch model with one thread per spec, each on its
// gshare-4K lanes under the paper estimator at threshold 16.
func (s *Session) runSMT(specs []workload.Spec, cfg apps.SMTConfig, maxSlots uint64) ([]uint64, error) {
	lanes := make([]*pipeline.Lanes, len(specs))
	for i, spec := range specs {
		l, err := s.modelLanes(spec, predGshare4K, paperSignal(16))
		if err != nil {
			return nil, err
		}
		lanes[i] = l
	}
	res, err := apps.RunSMTLanes(lanes, cfg, maxSlots)
	if err != nil {
		return nil, err
	}
	return append([]uint64{res.Slots, res.Useful, res.Wasted, res.GatedSkips}, res.PerThreadUse...), nil
}

// The hybrid study's predictors beyond gshare-4K: the 4K bimodal component
// and the two components' tournament with a 4K chooser. Each component
// pairs with a 12-bit resetting-counter table (core.SmallResetting(12)).
var (
	predBimodal4K    = Pred(func() predictor.Predictor { return predictor.NewBimodal(12) })
	predTournament4K = Pred(func() predictor.Predictor {
		return predictor.NewTournament(predictor.NewBimodal(12), predictor.NewGshare(12, 12), 12)
	})
)

// runHybrid compares the confidence-selected hybrid, the tournament and
// the solo components on spec: the number of branches, then the misses of
// each.
func (s *Session) runHybrid(spec workload.Spec) ([]uint64, error) {
	var r apps.HybridComparison
	if s.cfg.SegmentBranches > 0 {
		src, err := s.Source(spec)
		if err != nil {
			return nil, err
		}
		r, err = apps.CompareHybrids(src,
			func() predictor.Predictor { return predictor.NewBimodal(12) },
			func() predictor.Predictor { return predictor.NewGshare(12, 12) },
			12)
		if err != nil {
			return nil, err
		}
	} else {
		cfg := s.suiteConfig()
		_, annA, bsA, err := sim.Lanes(cfg, spec, predBimodal4K.Key, predBimodal4K.New, core.SmallResetting(12))
		if err != nil {
			return nil, err
		}
		_, annB, bsB, err := sim.Lanes(cfg, spec, predGshare4K.Key, predGshare4K.New, core.SmallResetting(12))
		if err != nil {
			return nil, err
		}
		_, annT, _, err := sim.Lanes(cfg, spec, predTournament4K.Key, predTournament4K.New, nil)
		if err != nil {
			return nil, err
		}
		r = apps.CompareHybridLanes(apps.HybridLanes{
			N:     annA.Len(),
			MissA: annA.MissWords(), MissB: annB.MissWords(), MissTour: annT.MissWords(),
			BucketA: bsA.Bucket, BucketB: bsB.Bucket,
		})
	}
	return []uint64{r.Branches, r.ConfHybrid, r.Tournament, r.SoloA, r.SoloB}, nil
}

// runReverser profiles spec under gshare-4K and its 12-bit resetting
// table, reverses the buckets mispredicting above threshold, and returns
// the evaluation's counts followed by the reversal-set size. Profile and
// evaluation run on the same trace, so both read the one bucket
// histogram.
func (s *Session) runReverser(spec workload.Spec, threshold float64) ([]uint64, error) {
	var r apps.ReverserResult
	var setSize int
	if s.cfg.SegmentBranches > 0 {
		p1, err := s.Source(spec)
		if err != nil {
			return nil, err
		}
		p2, err := s.Source(spec)
		if err != nil {
			return nil, err
		}
		r, setSize, err = apps.ReverserStudy(p1, p2,
			func() predictor.Predictor { return predictor.Gshare4K() },
			func() core.Mechanism { return core.SmallResetting(12) }, threshold)
		if err != nil {
			return nil, err
		}
	} else {
		_, _, bs, err := sim.Lanes(s.suiteConfig(), spec, predGshare4K.Key, predGshare4K.New, core.SmallResetting(12))
		if err != nil {
			return nil, err
		}
		set := apps.ReverseSet(bs.Stats(), threshold)
		r, setSize = apps.EvalReverser(bs.Stats(), set), len(set)
	}
	return []uint64{r.Branches, r.BaseMisses, r.ReversedMisses, r.Reversals, r.GoodReversals, uint64(setSize)}, nil
}
