package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/core"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// The long-horizon experiment measures how confidence-table warmup and
// aliasing evolve with trace length: the paper's tables are trained on 1M
// branches per benchmark, but a CIR table's hot set keeps growing with the
// horizon, so coverage at a fixed branch fraction drifts as cold-start
// effects wash out and destructive aliasing accumulates in small tables.
// It sweeps the hardest benchmark (real_gcc, the largest static branch
// population) at three horizons — 1/16, 1/4 and all of the session budget —
// and reports each mechanism's mispredict coverage at 20% of dynamic
// branches plus the predictor's composite miss rate per horizon.
//
// The experiment is OptIn: its interesting budgets (10^8 branches and up,
// under -segment-branches) dwarf a default report run, so it only executes
// when -only names it. At any budget it runs bounded-memory when the
// session streams (Config.SegmentBranches), making it the natural driver
// for memory-ceiling smoke checks.
func init() {
	register(Experiment{
		ID:    "longhorizon",
		Title: "Confidence-table warmup and aliasing vs trace length (real_gcc)",
		Paper: "not in the paper; extends Fig. 5/9 along the trace-length axis",
		OptIn: true,
		Run:   runLongHorizon,
	})
}

// mechOneLevel1K is the best one-level method on a 1K-entry table, whose
// aliasing the long horizons expose.
var mechOneLevel1K = Mech(func() core.Mechanism {
	return core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, TableBits: 10})
})

func runLongHorizon(s *Session) (*Output, error) {
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		return nil, err
	}
	budget := s.Branches()
	horizons := []uint64{budget / 16, budget / 4, budget}
	for i := range horizons {
		if horizons[i] == 0 {
			horizons[i] = 1
		}
	}
	mechs := []struct {
		label string
		spec  MechSpec
	}{
		{"onelevel-pc^bhr", mechOneLevel(core.IndexPCxorBHR)},
		{"onelevel-1K", mechOneLevel1K},
		{"resetting", mechResetting},
	}

	cfg := s.Config()
	o := &Output{ID: "longhorizon", Title: "warmup and aliasing vs trace length", Scalars: map[string]float64{}}
	var b strings.Builder
	b.WriteString("horizon(branches)  miss%   ")
	for _, m := range mechs {
		fmt.Fprintf(&b, "%18s", m.label+"@20%")
	}
	b.WriteString("\n")
	for _, h := range horizons {
		// Per-horizon budgets differ from the session's, so these passes
		// bypass the session pass cache and hit the sim engine directly —
		// streaming when the session streams.
		scfg := sim.SuiteConfig{
			Branches:        h,
			Specs:           []workload.Spec{spec},
			SegmentBranches: cfg.SegmentBranches,
		}
		newMechs := make([]func() core.Mechanism, len(mechs))
		for i, m := range mechs {
			newMechs[i] = m.spec.New
		}
		rs, err := sim.RunSuiteAnnotated(scfg, predGshare64K.Key, predGshare64K.New, newMechs)
		if err != nil {
			return nil, err
		}
		miss := 100 * rs[0].CompositeMissRate()
		fmt.Fprintf(&b, "%17d  %5.2f  ", h, miss)
		o.Scalars[fmt.Sprintf("miss%%@%d", h)] = miss
		for i, m := range mechs {
			curve := s.Pooled(rs[i].Runs).Curve()
			cov := curve.MispredsAt(20)
			fmt.Fprintf(&b, "%17.2f%%", cov)
			o.Scalars[fmt.Sprintf("%s@20%%@%d", m.label, h)] = cov
		}
		b.WriteString("\n")
	}
	o.Text = b.String()
	return o, nil
}
