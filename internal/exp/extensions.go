package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/analysis"
	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Extensions beyond the paper's figures: the multi-level generalisation §1
// mentions but does not pursue, the context-switch initialisation
// conjecture of §5.4, and pipeline gating — the direct follow-on
// application of these estimators (Manne, Klauser & Grunwald, ISCA '98).
func init() {
	registerExtensions()
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func registerExtensions() {
	register(Experiment{
		ID:    "gating",
		Title: "Pipeline gating: wrong-path work vs stall cost across gate thresholds",
		Paper: "follow-on work (ISCA '98) built on this paper's estimators; gating should cut wasted work at small stall cost",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "gating", Title: "pipeline gating", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("gate-threshold  wasted%work  stalled%demand  mispredict%\n")
			// All thresholds read one (miss, low-confidence) lane pair per
			// benchmark (the gate never feeds back into the predictor or the
			// estimator), so the whole study is one pass over the suite
			// instead of len(thresholds) passes.
			thresholds := []int{0, 4, 2, 1}
			cfgs := make([]apps.GateConfig, len(thresholds))
			for i, thr := range thresholds {
				cfgs[i] = apps.GateConfig{ResolveDistance: 4, Threshold: thr}
			}
			wasted := make([]float64, len(thresholds))
			stalled := make([]float64, len(thresholds))
			miss := make([]float64, len(thresholds))
			n := 0
			// The whole batch is one model-tier entry: its counts are a pure
			// function of one predictor+estimator lane pair per benchmark,
			// and the threshold list is part of the key.
			params := fmt.Sprintf("pred=gshare4k|est=paper8|resolve=4|thrs=%v", thresholds)
			rows, err := s.suiteModel("gating", params, 5*len(cfgs), func(spec workload.Spec) ([]uint64, error) {
				return s.runGating(spec, cfgs)
			})
			if err != nil {
				return nil, err
			}
			for _, counts := range rows {
				for i := range cfgs {
					w := counts[5*i:]
					res := apps.GateResult{Branches: w[0], Misses: w[1], Useful: w[2], Wasted: w[3], Stalled: w[4]}
					wasted[i] += res.WastedFrac()
					stalled[i] += res.StallFrac()
					miss[i] += float64(res.Misses) / float64(res.Branches)
				}
				n++
			}
			for i, thr := range thresholds {
				w, st, m := wasted[i]/float64(n), stalled[i]/float64(n), miss[i]/float64(n)
				label := fmt.Sprintf("%d", thr)
				if thr == 0 {
					label = "off"
				}
				fmt.Fprintf(&b, "%14s  %11.2f  %14.2f  %11.2f\n", label, 100*w, 100*st, 100*m)
				o.Scalars[fmt.Sprintf("thr%s-wasted%%", label)] = 100 * w
				o.Scalars[fmt.Sprintf("thr%s-stalled%%", label)] = 100 * st
			}
			o.Text = b.String()
			return o, nil
		},
	})
	register(Experiment{
		ID:    "strength",
		Title: "Counter-strength confidence (related work, Smith '81) vs a dedicated resetting-counter table",
		Paper: "§1.1 cites confidence from counter saturation. Identity: a 2-bit counter is weak exactly when its entry last mispredicted, so strength ≡ resetting-counter==0 at congruent geometry; the dedicated table buys the finer thresholds",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "strength", Title: "counter-strength baseline", Scalars: map[string]float64{}}
			// Strength mechanism (2 buckets) per benchmark, pooled. The
			// mechanism reads the predictor's own counters from the
			// captured pre-update state lane, so it shares a session pass
			// with the resetting table like any independent mechanism.
			srs, err := s.Suite(predGshare64K, mechStrength, mechResetting)
			if err != nil {
				return nil, err
			}
			strength := s.Pooled(srs[0].Runs).Curve()
			reset := s.Pooled(srs[1].Runs).Curve()
			// The strength method has one natural operating point: its
			// weak-state set. Compare both methods at that set size.
			weakPct := strength[0].CumEventsPct
			o.Scalars["weakSet%branches"] = weakPct
			o.Scalars["strength-coverage%"] = strength[0].CumMissesPct
			o.Scalars["resetting-coverage%"] = reset.MispredsAt(weakPct)
			o.Scalars["resetting@20%"] = reset.MispredsAt(20)
			o.Series = []analysis.Series{
				{Label: "counter-strength", Curve: strength},
				{Label: "resetting", Curve: reset},
			}
			o.Text = fmt.Sprintf(
				"strength — weak-state set holds %.1f%% of branches\n"+
					"  counter-strength coverage there:              %.2f%% of mispredictions\n"+
					"  resetting table at the same set size:         %.2f%% (identical by the\n"+
					"    weak⟺last-access-mispredicted identity at congruent geometry)\n"+
					"  resetting table pushed to 20%% of branches:    %.2f%% — the operating\n"+
					"    range the free strength signal cannot reach\n",
				weakPct, strength[0].CumMissesPct, reset.MispredsAt(weakPct), reset.MispredsAt(20))
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ctxswitch-mix",
		Title: "Multiprogrammed mix: four benchmarks time-sliced through shared tables",
		Paper: "§5.4 models switches as reinitialisation; this runs real interleaving (quantum sweep) to show table pollution directly",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ctxswitch-mix", Title: "multiprogrammed mix", Scalars: map[string]float64{}}
			mixNames := []string{"groff", "real_gcc", "jpeg_play", "sdet"}
			mkMix := func(quantum uint64) (trace.Source, error) {
				srcs := make([]trace.Source, 0, len(mixNames))
				for _, name := range mixNames {
					spec, err := workload.ByName(name)
					if err != nil {
						return nil, err
					}
					src, err := s.Source(spec)
					if err != nil {
						return nil, err
					}
					srcs = append(srcs, src)
				}
				return trace.Interleave(quantum, srcs...), nil
			}
			// Solo baseline: equal-weight composite of the four benchmarks
			// run with private tables — read from the cached suite pass.
			oneSR, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
			if err != nil {
				return nil, err
			}
			var soloRuns []sim.Result
			for _, name := range mixNames {
				res, err := oneSR.ByName(name)
				if err != nil {
					return nil, err
				}
				soloRuns = append(soloRuns, res)
			}
			solo := s.Pooled(soloRuns).Curve()
			o.Series = append(o.Series, analysis.Series{Label: "solo", Curve: solo})
			o.Scalars["solo@20%"] = solo.MispredsAt(20)
			for _, quantum := range []uint64{100_000, 10_000, 1_000} {
				src, err := mkMix(quantum)
				if err != nil {
					return nil, err
				}
				res, err := sim.Run(src, predictor.Gshare64K(), core.PaperOneLevel(core.IndexPCxorBHR))
				if err != nil {
					return nil, err
				}
				c := s.SingleRun(res).Curve()
				label := fmt.Sprintf("mix-q%d", quantum)
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
				o.Scalars[label+"-missRate%"] = 100 * res.MissRate()
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "replication",
		Title: "Seed replication: headline scalars across independent workload seeds",
		Paper: "robustness check — the paper's conclusions should not hinge on one trace sample",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "replication", Title: "seed replication", Scalars: map[string]float64{}}
			const replicas = 3
			var b strings.Builder
			b.WriteString("replica  gshare64K-miss%  BHRxorPC@20%  Reset@20%\n")
			var missMin, missMax, idealMin, idealMax, resetMin, resetMax float64
			for rep := 0; rep < replicas; rep++ {
				var idealRuns, resetRuns []sim.Result
				var missSum float64
				var nspecs int
				if rep == 0 {
					// Replica 0 is the standard suite: read it from the
					// session's pass cache.
					rs, err := s.Suite(predGshare64K, mechOneLevel(core.IndexPCxorBHR), mechResetting)
					if err != nil {
						return nil, err
					}
					for _, run := range rs[0].Runs {
						missSum += run.MissRate()
					}
					idealRuns = rs[0].Runs
					resetRuns = rs[1].Runs
					nspecs = len(rs[0].Runs)
				} else {
					// Mutated-seed replicas stream once each, training both
					// mechanisms in a single batched pass; the buffers are
					// not worth retaining, so they bypass the global cache.
					specs := workload.Suite()
					for i := range specs {
						specs[i].Seed += uint64(rep) * 0x9E37 // distinct structural+walk seeds
					}
					for _, spec := range specs {
						src, err := spec.FiniteSource(s.Config().Branches)
						if err != nil {
							return nil, err
						}
						rs, err := sim.RunBatch(src, predictor.Gshare64K(), []core.Mechanism{
							core.PaperOneLevel(core.IndexPCxorBHR),
							core.PaperResetting(),
						})
						if err != nil {
							return nil, err
						}
						missSum += rs[0].MissRate()
						idealRuns = append(idealRuns, rs[0])
						resetRuns = append(resetRuns, rs[1])
					}
					nspecs = len(specs)
				}
				miss := 100 * missSum / float64(nspecs)
				ideal := s.Pooled(idealRuns).Curve().MispredsAt(20)
				reset := s.Pooled(resetRuns).Curve().MispredsAt(20)
				fmt.Fprintf(&b, "%7d  %15.2f  %12.1f  %9.1f\n", rep, miss, ideal, reset)
				if rep == 0 {
					missMin, missMax = miss, miss
					idealMin, idealMax = ideal, ideal
					resetMin, resetMax = reset, reset
				} else {
					missMin, missMax = min2(missMin, miss), max2(missMax, miss)
					idealMin, idealMax = min2(idealMin, ideal), max2(idealMax, ideal)
					resetMin, resetMax = min2(resetMin, reset), max2(resetMax, reset)
				}
			}
			o.Scalars["miss%-spread"] = missMax - missMin
			o.Scalars["ideal@20%-spread"] = idealMax - idealMin
			o.Scalars["reset@20%-spread"] = resetMax - resetMin
			o.Scalars["ideal@20%-min"] = idealMin
			fmt.Fprintf(&b, "spread   %15.2f  %12.1f  %9.1f\n",
				missMax-missMin, idealMax-idealMin, resetMax-resetMin)
			o.Text = b.String()
			return o, nil
		},
	})

	register(Experiment{
		ID:    "perbench",
		Title: "Per-benchmark variation band (Fig. 9 generalised to the whole suite)",
		Paper: "Fig. 9 shows only the extremes (JPEG best, GCC worst) and notes considerable variation",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "perbench", Title: "per-benchmark variation", Scalars: map[string]float64{}}
			sr, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
			if err != nil {
				return nil, err
			}
			var curves []analysis.Curve
			var names []string
			for _, res := range sr.Runs {
				c := s.SingleRun(res).Curve()
				curves = append(curves, c)
				names = append(names, res.Benchmark)
				o.Series = append(o.Series, analysis.Series{Label: res.Benchmark, Curve: c})
				o.Scalars[res.Benchmark+"@20%"] = c.MispredsAt(20)
			}
			xs := []float64{5, 10, 20, 40}
			band := analysis.BuildBand(curves, xs)
			o.Scalars["spread@20%"] = band.Spread(20)
			o.Text = "perbench — best one-level method, ideal reduction, per benchmark\n" +
				band.Format(names) + "\n" +
				analysis.FormatFigure("per-benchmark curves", o.Series, xs)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "multilevel",
		Title: "Multi-level confidence classes (the §1 generalisation, four levels)",
		Paper: "\"one could divide the branches into multiple sets with a range of confidence levels\" — not pursued in the paper",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "multilevel", Title: "multi-level confidence", Scalars: map[string]float64{}}
			ladder := []uint64{1, 8, 16}
			// The level split is a pure partition of the resetting-counter
			// buckets, so it derives exactly from the cached suite pass.
			sr, err := s.SuiteOne(predGshare64K, mechResetting)
			if err != nil {
				return nil, err
			}
			agg := make([]sim.LevelTally, len(ladder)+1)
			for _, run := range sr.Runs {
				res := sim.DeriveMulti(run, ladder)
				// Equal-weight compositing: normalise each benchmark to
				// unit branch mass before summing.
				total := float64(res.Branches())
				misses := float64(res.Misses())
				for i, l := range res.Levels {
					agg[i].Branches += uint64(1e6 * float64(l.Branches) / total)
					if misses > 0 {
						agg[i].Misses += uint64(1e6 * float64(l.Misses) / misses)
					}
				}
			}
			var b strings.Builder
			b.WriteString("level  description                %branches  %mispredictions  enrichment\n")
			var totB, totM float64
			for _, l := range agg {
				totB += float64(l.Branches)
				totM += float64(l.Misses)
			}
			desc := []string{
				"count 0 (just mispredicted)",
				"counts 1-7",
				"counts 8-15",
				"count 16 (saturated)",
			}
			for i, l := range agg {
				bp := 100 * float64(l.Branches) / totB
				mp := 100 * float64(l.Misses) / totM
				enrich := 0.0
				if bp > 0 {
					enrich = mp / bp
				}
				fmt.Fprintf(&b, "%5d  %-26s %9.2f  %15.2f  %9.2fx\n", i, desc[i], bp, mp, enrich)
				o.Scalars[fmt.Sprintf("level%d-branches%%", i)] = bp
				o.Scalars[fmt.Sprintf("level%d-mispreds%%", i)] = mp
			}
			o.Text = b.String()
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ctxswitch",
		Title: "Context-switch CT treatment: keep vs flush-to-ones vs flush-to-zeros vs mark-oldest (§5.4 conjecture)",
		Paper: "conjecture: keeping CIRs but setting the oldest bit to 1 performs like full nonzero reinitialisation",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ctxswitch", Title: "context switches", Scalars: map[string]float64{}}
			// Switch every 64k branches: a few dozen switches per run.
			const interval = 64_000
			switched := func(init core.InitPolicy, policy core.SwitchPolicy) MechSpec {
				return Mech(func() core.Mechanism {
					m := core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, Init: init})
					return core.NewSwitched(m, interval, policy)
				})
			}
			// The policies touch only their own CIR table, never the
			// predictor, so all four replay the cached gshare-64K pass; keep
			// is fig5's.
			labels := []string{"keep", "flush-ones", "flush-zeros", "mark-oldest"}
			srs, err := s.Suite(predGshare64K,
				mechOneLevel(core.IndexPCxorBHR),
				switched(core.InitOnes, core.SwitchReset),
				switched(core.InitZeros, core.SwitchReset),
				switched(core.InitOnes, core.SwitchMarkOldest))
			if err != nil {
				return nil, err
			}
			for i, label := range labels {
				c := s.Pooled(srs[i].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})
}
