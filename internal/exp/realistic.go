package exp

import (
	"fmt"
	"math/bits"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// Two experiments closing loops the paper leaves open:
//
//   - static-realistic: §2 admits the static curve is optimistic because
//     the profile and the evaluation use the same data. Here the profile
//     ranks static branches on a training walk and the curve is evaluated
//     on a disjoint walk of the same program.
//
//   - ablation-weighted: §5.1 observes ones counting weights old and
//     recent mispredictions equally although "recent mispredictions ...
//     correlate better". A recency-weighted ones count tests whether
//     honouring that observation closes the gap to the ideal reduction.
func init() {
	register(Experiment{
		ID:    "static-realistic",
		Title: "Static confidence with an out-of-sample profile (de-idealising §2)",
		Paper: "§2: \"the graph ... provides an optimistic estimate ... we are executing the programs with exactly the same data as for the profile\"",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "static-realistic", Title: "realistic static confidence", Scalars: map[string]float64{}}
			// The training half is the standard walk under the standard
			// predictor — exactly the cached static suite pass.
			trainSR, err := s.SuiteOne(predGshare64K, mechStatic)
			if err != nil {
				return nil, err
			}
			// The evaluation half walks each program along a disjoint
			// dynamic path (different walk seed, same build). It is used
			// once, so it streams instead of entering the replay cache.
			var evalRuns []sim.Result
			for _, spec := range workload.Suite() {
				evalSrc, err := spec.FiniteSourceSeeded(s.Config().Branches, spec.Seed^0xE7A1_0A7E)
				if err != nil {
					return nil, err
				}
				evalRes, err := sim.Run(evalSrc, predictor.Gshare64K(), core.NewStaticProfile())
				if err != nil {
					return nil, err
				}
				evalRuns = append(evalRuns, evalRes)
			}
			trainCS := s.Distinct(trainSR.Runs)
			evalCS := s.Distinct(evalRuns)
			optimistic := evalCS.Curve() // eval data, eval-sorted
			order := trainCS.Curve().Keys()
			// The ordered accumulation stays on the direct path: its order
			// input is run-specific, so a cached artifact would never be
			// shared, and the build is a single pass over the composite.
			realistic := analysis.BuildCurveOrdered(evalCS.Stats(), order)
			o.Series = []analysis.Series{
				{Label: "optimistic (self-profiled)", Curve: optimistic},
				{Label: "realistic (train/test split)", Curve: realistic},
			}
			o.Scalars["optimistic@20%"] = optimistic.MispredsAt(20)
			o.Scalars["realistic@20%"] = realistic.MispredsAt(20)
			o.Scalars["optimism-gap@20%"] = optimistic.MispredsAt(20) - realistic.MispredsAt(20)
			renderFigure(o)
			o.Text += fmt.Sprintf("\noptimism gap at 20%% of branches: %.1f points\n",
				o.Scalars["optimism-gap@20%"])
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ablation-weighted",
		Title: "Recency-weighted ones counting (the refinement §5.1's analysis points at)",
		Paper: "§5.1: recent CIR bits correlate better than old ones, yet ones counting weighs them equally",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-weighted", Title: "weighted ones counting", Scalars: map[string]float64{}}
			sr, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
			if err != nil {
				return nil, err
			}
			cs := s.Pooled(sr.Runs)
			ideal := cs.Curve()
			plain := cs.Merged("1cnt", func(b uint64) uint64 {
				return uint64(bits.OnesCount64(b))
			})
			weigher := core.WeightedOnesReducer{Width: 16}
			weighted := cs.Merged("w1cnt-w16", func(b uint64) uint64 {
				return uint64(weigher.Score(b))
			})
			o.Series = []analysis.Series{
				{Label: "ideal", Curve: ideal},
				{Label: "1Cnt", Curve: plain},
				{Label: "weighted-1Cnt", Curve: weighted},
			}
			o.Scalars["ideal@20%"] = ideal.MispredsAt(20)
			o.Scalars["plain@20%"] = plain.MispredsAt(20)
			o.Scalars["weighted@20%"] = weighted.MispredsAt(20)
			renderFigure(o)
			return o, nil
		},
	})
}
