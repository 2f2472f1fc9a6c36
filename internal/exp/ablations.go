package exp

import (
	"fmt"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
)

// The sweeps' mechanisms, each built once per process: CIR widths on the
// best one-level method, and resetting-counter ceilings.
var (
	cirWidths     = []uint{4, 8, 12, 16, 24, 32}
	cirWidthMechs = mechsFor(cirWidths, func(width uint) core.Mechanism {
		return core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, CIRBits: width})
	})

	counterMaxes    = []uint8{4, 8, 16, 32, 64}
	counterMaxMechs = mechsFor(counterMaxes, func(max uint8) core.Mechanism {
		return core.NewCounterTable(core.CounterConfig{Kind: core.Resetting, Scheme: core.IndexPCxorBHR, Max: max})
	})
)

// Ablations check the design claims the paper makes in passing: that xor
// indexing beats concatenation, that the global CIR is a poor index, that
// 16-bit CIRs are a reasonable width, and that the dismissed second-level
// index variants really are worse.
func init() {
	register(Experiment{
		ID:    "ablation-index",
		Title: "Index-scheme ablation: every one-level scheme incl. dismissed GCIR and concatenation",
		Paper: "§3.1: xor beats concatenation; global CIR of little value",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-index", Title: "index schemes", Scalars: map[string]float64{}}
			schemes := []core.IndexScheme{
				core.IndexPC, core.IndexBHR, core.IndexPCxorBHR,
				core.IndexGCIR, core.IndexPCxorGCIR, core.IndexPCconcatBHR,
			}
			mechs := make([]MechSpec, len(schemes))
			for i, scheme := range schemes {
				mechs[i] = mechOneLevel(scheme)
			}
			rs, err := s.Suite(predGshare64K, mechs...)
			if err != nil {
				return nil, err
			}
			for i, scheme := range schemes {
				c := s.Pooled(rs[i].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: scheme.String(), Curve: c})
				o.Scalars[scheme.String()+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ablation-cirwidth",
		Title: "CIR width ablation on the best one-level method (ideal reduction)",
		Paper: "the paper fixes n=16; this sweeps 4..32 to expose the trade-off",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-cirwidth", Title: "CIR widths", Scalars: map[string]float64{}}
			rs, err := s.Suite(predGshare64K, cirWidthMechs...)
			if err != nil {
				return nil, err
			}
			for i, width := range cirWidths {
				c := s.Pooled(rs[i].Runs).Curve()
				label := fmt.Sprintf("cir%d", width)
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ablation-l2index",
		Title: "Second-level index ablation: all four L2 hash variants",
		Paper: "§3.2 explores 12 combinations and settles on three; this covers the L2 axis",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-l2index", Title: "second-level indices", Scalars: map[string]float64{}}
			variants := []core.SecondIndex{core.L2CIR, core.L2CIRxorPC, core.L2CIRxorBHR, core.L2CIRxorPCxorBHR}
			mechs := make([]MechSpec, len(variants))
			for i, s2 := range variants {
				mechs[i] = mechTwoLevel(core.IndexPCxorBHR, s2)
			}
			rs, err := s.Suite(predGshare64K, mechs...)
			if err != nil {
				return nil, err
			}
			for i, s2 := range variants {
				c := s.Pooled(rs[i].Runs).Curve()
				o.Series = append(o.Series, analysis.Series{Label: s2.String(), Curve: c})
				o.Scalars[s2.String()+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})

	register(Experiment{
		ID:    "ablation-countermax",
		Title: "Resetting-counter ceiling ablation (threshold granularity, §5.2)",
		Paper: "larger counters buy slightly finer granularity; the approach is limited",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "ablation-countermax", Title: "counter ceilings", Scalars: map[string]float64{}}
			rs, err := s.Suite(predGshare64K, counterMaxMechs...)
			if err != nil {
				return nil, err
			}
			for i, max := range counterMaxes {
				c := s.Pooled(rs[i].Runs).Curve()
				label := fmt.Sprintf("max%d", max)
				o.Series = append(o.Series, analysis.Series{Label: label, Curve: c})
				o.Scalars[label+"@20%"] = c.MispredsAt(20)
			}
			renderFigure(o)
			return o, nil
		},
	})
}
