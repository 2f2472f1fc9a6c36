package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// compositeMissRate returns the registry predictor's equal-weight mean
// misprediction rate over the suite (sim.SuiteResult.CompositeMissRate).
// The miss counts come straight from the annotated streams (sim.Lanes),
// so no mechanism is replayed; a segmented session, which holds no
// whole-trace streams, takes them from a static-profile suite pass.
func (s *Session) compositeMissRate(name string) (float64, error) {
	newPred := func() predictor.Predictor {
		p, err := predictor.Build(name)
		if err != nil {
			panic(err) // registry names are valid by construction
		}
		return p
	}
	if s.cfg.SegmentBranches > 0 {
		sr, err := s.SuiteOne(PredSpec{Key: name, New: newPred}, mechStatic)
		if err != nil {
			return 0, err
		}
		return sr.CompositeMissRate(), nil
	}
	specs := workload.Suite()
	runs := make([]sim.Result, len(specs))
	for i, spec := range specs {
		_, ann, _, err := sim.Lanes(s.suiteConfig(), spec, name, newPred, nil)
		if err != nil {
			return 0, err
		}
		runs[i] = sim.Result{Benchmark: spec.Name, Branches: uint64(ann.Len()), Misses: ann.Misses()}
	}
	return sim.SuiteResult{Runs: runs}.CompositeMissRate(), nil
}

func init() {
	register(Experiment{
		ID:    "baseline",
		Title: "Underlying predictor misprediction rates (composite, equal-weight)",
		Paper: "gshare-64K: 3.85%; gshare-4K: 8.6%",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "baseline", Title: "predictor baselines", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("baseline — composite misprediction rates\n")
			for _, name := range predictor.Names() {
				rate, err := s.compositeMissRate(name)
				if err != nil {
					return nil, err
				}
				o.Scalars[name] = rate
				fmt.Fprintf(&b, "%-16s %6.2f%%\n", name, 100*rate)
			}
			o.Text = b.String()
			return o, nil
		},
	})

	register(Experiment{
		ID:    "thresholds",
		Title: "Practical estimator operating points (resetting counters, thresholds 1..16)",
		Paper: "Table 1 cumulative rows read as thresholds: 1 → 41.7%/4.28%, 16 → 89.3%/20.3%",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "thresholds", Title: "estimator operating points", Scalars: map[string]float64{}}
			// One cached resetting-counter pass supplies every threshold:
			// an estimator's low/high split is an exact partition of the
			// per-bucket statistics (sim.DeriveEstimator), so no further
			// simulation is needed.
			sr, err := s.SuiteOne(predGshare64K, mechResetting)
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			b.WriteString("threshold  low-set%branches  coverage%mispreds    PVN%\n")
			for _, thr := range []uint64{1, 2, 4, 8, 12, 16} {
				var lowSum, covSum, pvnSum float64
				runs := 0
				for _, run := range sr.Runs {
					res := sim.DeriveEstimator(run, core.CounterReducer{Threshold: thr})
					lowSum += res.LowFrac()
					covSum += res.Coverage()
					pvnSum += res.PVN()
					runs++
				}
				low := 100 * lowSum / float64(runs)
				cov := 100 * covSum / float64(runs)
				pvn := 100 * pvnSum / float64(runs)
				fmt.Fprintf(&b, "%9d  %16.2f  %17.2f  %6.2f\n", thr, low, cov, pvn)
				o.Scalars[fmt.Sprintf("thr%d-low%%", thr)] = low
				o.Scalars[fmt.Sprintf("thr%d-coverage%%", thr)] = cov
			}
			o.Text = b.String()
			return o, nil
		},
	})
}
