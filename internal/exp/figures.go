package exp

import (
	"fmt"
	"math/bits"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
)

// staticCurve computes the Fig. 2 static-profile curve: per-static-branch
// statistics under the 64K gshare, composited with distinct bucket spaces.
func staticCurve(s *Session) (analysis.Curve, error) {
	sr, err := s.SuiteOne(predGshare64K, mechStatic)
	if err != nil {
		return nil, err
	}
	return s.Distinct(sr.Runs).Curve(), nil
}

// oneLevelCurve computes a pooled-composite curve for a one-level CIR
// mechanism under the 64K gshare with the ideal (sorted) reduction.
func oneLevelCurve(s *Session, scheme core.IndexScheme) (analysis.Curve, error) {
	sr, err := s.SuiteOne(predGshare64K, mechOneLevel(scheme))
	if err != nil {
		return nil, err
	}
	return s.Pooled(sr.Runs).Curve(), nil
}

// The figures' parameterized mechanisms, each built once per process:
// Fig. 8's counter reductions, Fig. 10's small resetting-counter tables
// (log2 sizes) and Fig. 11's initial states.
var (
	fig8Kinds    = []core.CounterKind{core.Saturating, core.Resetting}
	fig8Counters = mechsFor(fig8Kinds, func(kind core.CounterKind) core.Mechanism {
		return core.NewCounterTable(core.CounterConfig{Kind: kind, Scheme: core.IndexPCxorBHR})
	})

	fig10Sizes  = []uint{12, 11, 10, 9, 8, 7}
	fig10Tables = mechsFor(fig10Sizes, func(bits uint) core.Mechanism { return core.SmallResetting(bits) })

	fig11Policies = core.InitPolicies()
	fig11Inits    = mechsFor(fig11Policies, func(pol core.InitPolicy) core.Mechanism {
		return core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, Init: pol})
	})
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Static (profile) confidence: cumulative mispredictions vs dynamic branches",
		Paper: "knee near (25.2, 70.6); 20% of branches capture ~63% of mispredictions",
		Run: func(s *Session) (*Output, error) {
			c, err := staticCurve(s)
			if err != nil {
				return nil, err
			}
			o := &Output{
				ID: "fig2", Title: "static confidence",
				Series:  []analysis.Series{{Label: "static", Curve: c}},
				Scalars: map[string]float64{"mispreds@20%": c.MispredsAt(20)},
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "One-level dynamic confidence (ideal reduction): PC vs BHR vs PCxorBHR",
		Paper: "at 20%: PCxorBHR 89%, BHR 85%, PC 72%; static ~63%; zero bucket ~80% of branches",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig5", Title: "one-level methods", Scalars: map[string]float64{}}
			schemes := core.OneLevelSchemes()
			// One batched declaration: static plus all three index schemes
			// share a single predictor pass per benchmark.
			mechs := []MechSpec{mechStatic}
			for _, scheme := range schemes {
				mechs = append(mechs, mechOneLevel(scheme))
			}
			rs, err := s.Suite(predGshare64K, mechs...)
			if err != nil {
				return nil, err
			}
			static := s.Distinct(rs[0].Runs).Curve()
			o.Series = append(o.Series, analysis.Series{Label: "static", Curve: static})
			for i, scheme := range schemes {
				c := s.Pooled(rs[i+1].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: scheme.String(), Curve: c})
				o.Scalars[scheme.String()+"@20%"] = c.MispredsAt(20)
			}
			// Zero-bucket share for the best method: the all-zeros CIR.
			best := o.Series[len(o.Series)-1].Curve
			for _, p := range best {
				if p.Key.Bucket == 0 {
					o.Scalars["zeroBucketBranches%"] = p.EventsPct
					o.Scalars["zeroBucketMispreds%"] = p.MissesPct
					break
				}
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig6",
		Title: "Two-level dynamic confidence (ideal reduction): three variants",
		Paper: "best: PCxorBHR→CIR; PC→CIR briefly competitive in the 5-10% region",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig6", Title: "two-level methods", Scalars: map[string]float64{}}
			variants := []struct {
				s1 core.IndexScheme
				s2 core.SecondIndex
			}{
				{core.IndexPC, core.L2CIR},
				{core.IndexPCxorBHR, core.L2CIR},
				{core.IndexPCxorBHR, core.L2CIRxorPCxorBHR},
			}
			mechs := []MechSpec{mechStatic}
			for _, v := range variants {
				mechs = append(mechs, mechTwoLevel(v.s1, v.s2))
			}
			rs, err := s.Suite(predGshare64K, mechs...)
			if err != nil {
				return nil, err
			}
			static := s.Distinct(rs[0].Runs).Curve()
			o.Series = append(o.Series, analysis.Series{Label: "static", Curve: static})
			for i, v := range variants {
				c := s.Pooled(rs[i+1].Runs).Curve()
				label := fmt.Sprintf("%s-%s", v.s1, v.s2)
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Best one-level vs best two-level vs static",
		Paper: "one- and two-level nearly identical (two-level slightly worse); both beat static",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig7", Title: "method comparison", Scalars: map[string]float64{}}
			rs, err := s.Suite(predGshare64K,
				mechStatic,
				mechOneLevel(core.IndexPCxorBHR),
				mechTwoLevel(core.IndexPCxorBHR, core.L2CIR))
			if err != nil {
				return nil, err
			}
			static := s.Distinct(rs[0].Runs).Curve()
			one := s.Pooled(rs[1].Runs).Curve()
			two := s.Pooled(rs[2].Runs).Curve()
			o.Series = []analysis.Series{
				{Label: "static", Curve: static},
				{Label: "BHRxorPC", Curve: one},
				{Label: "BHRxorPC-CIR", Curve: two},
			}
			o.Scalars["static@20%"] = static.MispredsAt(20)
			o.Scalars["1lev@20%"] = one.MispredsAt(20)
			o.Scalars["2lev@20%"] = two.MispredsAt(20)
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig8",
		Title: "Reduction functions on the best one-level method",
		Paper: "resetting tracks ideal closely (same zero bucket); saturating's max bucket absorbs too many mispredictions; ones-count between",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig8", Title: "reduction functions", Scalars: map[string]float64{}}
			mechs := append([]MechSpec{mechOneLevel(core.IndexPCxorBHR)}, fig8Counters...)
			rs, err := s.Suite(predGshare64K, mechs...)
			if err != nil {
				return nil, err
			}
			// Ideal and ones-count derive from the same full-CIR run (and, on
			// a cold build, from one shared pooled composite).
			cs := s.Pooled(rs[0].Runs)
			ideal := cs.Curve()
			ones := cs.Merged("1cnt", func(b uint64) uint64 {
				return uint64(bits.OnesCount64(b))
			})
			o.Series = append(o.Series,
				analysis.Series{Label: "BHRxorPC (ideal)", Curve: ideal},
				analysis.Series{Label: "BHRxorPC.1Cnt", Curve: ones},
			)
			for i, kind := range fig8Kinds {
				c := s.Pooled(rs[i+1].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: "BHRxorPC." + kind.String(), Curve: c})
				o.Scalars[kind.String()+"@20%"] = c.MispredsAt(20)
			}
			o.Scalars["ideal@20%"] = ideal.MispredsAt(20)
			o.Scalars["1Cnt@20%"] = ones.MispredsAt(20)
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "table1",
		Title: "Resetting-counter statistics (17 rows, counts 0-16)",
		Paper: "count 0: 41.7% of mispreds in 4.28% of refs; counts 0-15: 89.3% in 20.3%",
		Run: func(s *Session) (*Output, error) {
			sr, err := s.SuiteOne(predGshare64K, mechResetting)
			if err != nil {
				return nil, err
			}
			pooled := s.Pooled(sr.Runs).Stats()
			rows := analysis.CounterRows(pooled, 16)
			o := &Output{
				ID: "table1", Title: "resetting-counter statistics",
				Rows: rows,
				Scalars: map[string]float64{
					"count0CumMispreds%":   rows[0].CumMissesPct,
					"count0CumRefs%":       rows[0].CumRefsPct,
					"count0-15CumMispreds": rows[15].CumMissesPct,
					"count0-15CumRefs":     rows[15].CumRefsPct,
				},
				Text: analysis.FormatCounterTable(rows),
			}
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Best vs worst benchmark (jpeg_play vs real_gcc), best one-level + ideal reduction",
		Paper: "considerable variation; zero buckets hold similar misprediction fractions but different branch fractions",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig9", Title: "per-benchmark extremes", Scalars: map[string]float64{}}
			// Per-benchmark runs come straight out of the cached suite pass.
			sr, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
			if err != nil {
				return nil, err
			}
			for _, name := range []string{"jpeg_play", "real_gcc"} {
				res, err := sr.ByName(name)
				if err != nil {
					return nil, err
				}
				c := s.SingleRun(res).Curve()
				o.Series = append(o.Series, analysis.Series{Label: name, Curve: c})
				o.Scalars[name+"@20%"] = c.MispredsAt(20)
				o.Scalars[name+"-missRate"] = res.MissRate()
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Small CIR tables (resetting counters, PCxorBHR) under the 4K gshare",
		Paper: "graceful degradation; 4096-entry CT captures ~75% of mispredictions at 20% of branches",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig10", Title: "small tables", Scalars: map[string]float64{}}
			rs, err := s.Suite(predGshare4K, fig10Tables...)
			if err != nil {
				return nil, err
			}
			for i, bitsN := range fig10Sizes {
				c := s.Pooled(rs[i].Runs).Curve()
				label := fmt.Sprintf("%d", 1<<bitsN)
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "CT initialisation: ones vs zeros vs lastbit vs random (ideal reduction)",
		Paper: "ones, lastbit and random similar; zeros clearly worse",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "fig11", Title: "initial state", Scalars: map[string]float64{}}
			rs, err := s.Suite(predGshare64K, fig11Inits...)
			if err != nil {
				return nil, err
			}
			for i, pol := range fig11Policies {
				c := s.Pooled(rs[i].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: pol.String(), Curve: c})
				o.Scalars[pol.String()+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})
}
