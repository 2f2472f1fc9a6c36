package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/apps"
	"branchconf/internal/workload"
)

// packAppDual flattens an application-level dual-path run's counters for
// the model tier.
func packAppDual(r apps.DualPathResult) []uint64 {
	return []uint64{r.Branches, r.Misses, r.Forks, r.CoveredMiss, r.DeniedForks, r.BaseCycles, r.DualCycles}
}

const appDualLen = 7

func unpackAppDual(c []uint64) apps.DualPathResult {
	return apps.DualPathResult{Branches: c[0], Misses: c[1], Forks: c[2], CoveredMiss: c[3], DeniedForks: c[4], BaseCycles: c[5], DualCycles: c[6]}
}

// appDualParams canonicalises a dual-path study's machine shape for keys.
func appDualParams(pred, est string, cfg apps.DualPathConfig) string {
	return fmt.Sprintf("pred=%s|est=%s|pen=%d|forkpen=%d|threads=%d|resolve=%d",
		pred, est, cfg.MispredictPenalty, cfg.ForkPenalty, cfg.MaxThreads, cfg.ResolveDistance)
}

func init() {
	register(Experiment{
		ID:    "apps",
		Title: "The four §1 applications driven by the recommended estimator",
		Paper: "§6: forking after ~20% of predictions captures >80% of mispredictions; reverser contingent on >50% buckets",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "apps", Title: "applications", Scalars: map[string]float64{}}
			var b strings.Builder

			// 1) Selective dual-path execution, averaged over the suite.
			var forkRate, coverage, savings float64
			n := 0
			params := appDualParams("gshare64k", "paper16", apps.DefaultDualPath())
			rows, err := s.suiteModel("appdual", params, appDualLen, func(spec workload.Spec) ([]uint64, error) {
				return s.runAppDual(spec, predGshare64K, paperSignal(16), apps.DefaultDualPath())
			})
			if err != nil {
				return nil, err
			}
			for _, counts := range rows {
				res := unpackAppDual(counts)
				forkRate += res.ForkRate()
				coverage += res.Coverage()
				savings += res.PenaltySavings()
				n++
			}
			forkRate, coverage, savings = forkRate/float64(n), coverage/float64(n), savings/float64(n)
			fmt.Fprintf(&b, "dual-path:  fork on %.1f%% of branches -> cover %.1f%% of mispredictions, save %.1f%% of penalty cycles\n",
				100*forkRate, 100*coverage, 100*savings)
			o.Scalars["dualpath-forkRate%"] = 100 * forkRate
			o.Scalars["dualpath-coverage%"] = 100 * coverage
			o.Scalars["dualpath-savings%"] = 100 * savings

			// 2) SMT fetch gating: four mixed threads, gated vs round-robin.
			// One SMT model run per policy, served through the model tier.
			// The thread mix is part of the key; PerThreadUse rides behind
			// the four scalar counters in the packed vector.
			var mix []workload.Spec
			for _, name := range []string{"groff", "real_gcc", "jpeg_play", "sdet"} {
				spec, err := workload.ByName(name)
				if err != nil {
					return nil, err
				}
				mix = append(mix, spec)
			}
			runSMT := func(gated bool) (apps.SMTResult, error) {
				smtCfg := apps.SMTConfig{ResolveSlots: 6, Gated: gated}
				params := fmt.Sprintf("pred=gshare4k|est=paper16|slots=%d|gated=%t", smtCfg.ResolveSlots, gated)
				counts, err := s.modelCounts(modelKey("smt", suiteName(mix), 4*s.Branches(), params), 4+len(mix), func() ([]uint64, error) {
					return s.runSMT(mix, smtCfg, 4*s.Branches())
				})
				if err != nil {
					return apps.SMTResult{}, err
				}
				return apps.SMTResult{Slots: counts[0], Useful: counts[1], Wasted: counts[2], GatedSkips: counts[3], PerThreadUse: counts[4:]}, nil
			}
			base, err := runSMT(false)
			if err != nil {
				return nil, err
			}
			gated, err := runSMT(true)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, "smt-fetch:  efficiency %.2f%% round-robin -> %.2f%% confidence-gated\n",
				100*base.Efficiency(), 100*gated.Efficiency())
			o.Scalars["smt-base-eff%"] = 100 * base.Efficiency()
			o.Scalars["smt-gated-eff%"] = 100 * gated.Efficiency()

			// 3) Hybrid selector vs tournament, averaged over the suite.
			var confRate, tourRate, bimRate, gshRate float64
			rows, err = s.suiteModel("hybrid", "a=bimodal12|b=gshare12x12|chooser=12", 5, s.runHybrid)
			if err != nil {
				return nil, err
			}
			for _, counts := range rows {
				cmpRes := apps.HybridComparison{Branches: counts[0], ConfHybrid: counts[1], Tournament: counts[2], SoloA: counts[3], SoloB: counts[4]}
				confRate += cmpRes.Rate(cmpRes.ConfHybrid)
				tourRate += cmpRes.Rate(cmpRes.Tournament)
				bimRate += cmpRes.Rate(cmpRes.SoloA)
				gshRate += cmpRes.Rate(cmpRes.SoloB)
			}
			k := float64(len(workload.Suite()))
			fmt.Fprintf(&b, "hybrid:     mispredict%% bimodal %.2f, gshare %.2f, tournament %.2f, confidence-selected %.2f\n",
				100*bimRate/k, 100*gshRate/k, 100*tourRate/k, 100*confRate/k)
			o.Scalars["hybrid-conf%"] = 100 * confRate / k
			o.Scalars["hybrid-tournament%"] = 100 * tourRate / k

			// 4) Reverser: profile-derived reversal sets on the small
			// predictor (where >50% buckets are likelier).
			var deltaSum float64
			var setSum int
			rows, err = s.suiteModel("reverser", "pred=gshare4k|mech=smallreset12|thr=0.55", 6, func(spec workload.Spec) ([]uint64, error) {
				return s.runReverser(spec, 0.55)
			})
			if err != nil {
				return nil, err
			}
			for _, counts := range rows {
				res := apps.ReverserResult{Branches: counts[0], BaseMisses: counts[1], ReversedMisses: counts[2], Reversals: counts[3], GoodReversals: counts[4]}
				deltaSum += res.Delta()
				setSum += int(counts[5])
			}
			fmt.Fprintf(&b, "reverser:   mean mispredict-rate delta %.4f%% (negative = better), mean reversal-set size %.1f\n",
				100*deltaSum/k, float64(setSum)/k)
			o.Scalars["reverser-delta%"] = 100 * deltaSum / k

			o.Text = b.String()
			return o, nil
		},
	})
}
