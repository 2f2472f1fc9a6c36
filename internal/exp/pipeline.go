package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/pipeline"
	"branchconf/internal/workload"
)

// packPipeStats flattens a pipeline run's counters for the model tier; the
// unpacker must mirror the order exactly.
func packPipeStats(st pipeline.Stats) []uint64 {
	return []uint64{st.Cycles, st.Retired, st.WrongPath, st.GateStalls, st.Branches, st.Misses}
}

const pipeStatsLen = 6

func unpackPipeStats(c []uint64) pipeline.Stats {
	return pipeline.Stats{Cycles: c[0], Retired: c[1], WrongPath: c[2], GateStalls: c[3], Branches: c[4], Misses: c[5]}
}

// packDualStats flattens a dual-path pipeline run's counters.
func packDualStats(st pipeline.DualPathStats) []uint64 {
	return append(packPipeStats(st.Stats), st.Forks, st.CoveredMiss, st.ForkSlots)
}

const dualStatsLen = pipeStatsLen + 3

func unpackDualStats(c []uint64) pipeline.DualPathStats {
	return pipeline.DualPathStats{Stats: unpackPipeStats(c), Forks: c[6], CoveredMiss: c[7], ForkSlots: c[8]}
}

func init() {
	register(Experiment{
		ID:    "pipeline",
		Title: "Cycle-level pipeline: IPC and wrong-path work under confidence-gated fetch",
		Paper: "IPC framing of the gating trade-off follow-on work quantified; oracle row bounds any estimator",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "pipeline", Title: "pipeline gating at cycle level", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("policy          IPC    waste%fetch   gate-stall%cycles\n")
			type policy struct {
				label  string
				gate   int
				est    uint64 // resetting-counter threshold; 0 with oracle
				oracle bool
			}
			policies := []policy{
				{"ungated", 0, 0, false},
				{"est8-gate4", 4, 8, false},
				{"est4-gate2", 2, 4, false},
				{"est2-gate1", 1, 2, false},
				{"oracle-gate1", 1, 0, true},
			}
			mach := pipeline.Default96()
			for _, pol := range policies {
				var ipc, waste, stall float64
				n := 0
				estLabel := "none"
				var sig laneSignal
				if pol.oracle {
					estLabel = "oracle"
					sig.oracle = true
				} else if pol.gate > 0 {
					estLabel = fmt.Sprintf("paper%d", pol.est)
					sig = paperSignal(pol.est)
				}
				m := mach
				m.GateThreshold = pol.gate
				params := fmt.Sprintf("pred=gshare4k|est=%s|fw=%d|depth=%d|gate=%d", estLabel, m.FetchWidth, m.Depth, m.GateThreshold)
				rows, err := s.suiteModel("pipeline", params, pipeStatsLen, func(spec workload.Spec) ([]uint64, error) {
					return s.runPipeline(spec, sig, m)
				})
				if err != nil {
					return nil, err
				}
				for _, counts := range rows {
					st := unpackPipeStats(counts)
					ipc += st.IPC()
					waste += st.WasteFrac()
					stall += float64(st.GateStalls) / float64(st.Cycles*uint64(m.FetchWidth))
					n++
				}
				ipc, waste, stall = ipc/float64(n), waste/float64(n), stall/float64(n)
				fmt.Fprintf(&b, "%-14s %5.2f   %11.2f   %17.2f\n", pol.label, ipc, 100*waste, 100*stall)
				o.Scalars[pol.label+"-ipc"] = ipc
				o.Scalars[pol.label+"-waste%"] = 100 * waste
			}
			o.Text = b.String()
			return o, nil
		},
	})

	register(Experiment{
		ID:    "dualpath-ipc",
		Title: "Cycle-level selective dual-path execution: IPC vs baseline (application 1 in time)",
		Paper: "§1/§6: fork the non-predicted path on low confidence; coverage should convert into recovered cycles",
		Run: func(s *Session) (*Output, error) {
			o := &Output{ID: "dualpath-ipc", Title: "dual-path at cycle level", Scalars: map[string]float64{}}
			var b strings.Builder
			b.WriteString("policy            IPC    covered%misses   fork%slots\n")
			type policy struct {
				label  string
				est    uint64
				oracle bool
				off    bool
			}
			policies := []policy{
				{label: "no-dual-path", off: true},
				{label: "est4-forks", est: 4},
				{label: "est8-forks", est: 8},
				{label: "oracle-forks", oracle: true},
			}
			mach := pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1}
			for _, pol := range policies {
				var ipc, covered, forkSlots float64
				n := 0
				if pol.off {
					params := fmt.Sprintf("pred=gshare4k|est=none|fw=%d|depth=%d|gate=0", mach.FetchWidth, mach.Depth)
					rows, err := s.suiteModel("pipeline", params, pipeStatsLen, func(spec workload.Spec) ([]uint64, error) {
						return s.runPipeline(spec, laneSignal{}, pipeline.Config{FetchWidth: mach.FetchWidth, Depth: mach.Depth})
					})
					if err != nil {
						return nil, err
					}
					for _, counts := range rows {
						ipc += unpackPipeStats(counts).IPC()
						n++
					}
				} else {
					estLabel := fmt.Sprintf("paper%d", pol.est)
					sig := paperSignal(pol.est)
					if pol.oracle {
						estLabel, sig = "oracle", laneSignal{oracle: true}
					}
					params := fmt.Sprintf("pred=gshare4k|est=%s|fw=%d|depth=%d|forkw=%d", estLabel, mach.FetchWidth, mach.Depth, mach.ForkWidth)
					rows, err := s.suiteModel("pipedual", params, dualStatsLen, func(spec workload.Spec) ([]uint64, error) {
						return s.runPipeDual(spec, sig, mach)
					})
					if err != nil {
						return nil, err
					}
					for _, counts := range rows {
						st := unpackDualStats(counts)
						ipc += st.IPC()
						if st.Misses > 0 {
							covered += float64(st.CoveredMiss) / float64(st.Misses)
						}
						forkSlots += float64(st.ForkSlots) / float64(st.Cycles*uint64(mach.FetchWidth))
						n++
					}
				}
				ipc, covered, forkSlots = ipc/float64(n), covered/float64(n), forkSlots/float64(n)
				fmt.Fprintf(&b, "%-15s %5.2f   %14.1f   %10.1f\n", pol.label, ipc, 100*covered, 100*forkSlots)
				o.Scalars[pol.label+"-ipc"] = ipc
				o.Scalars[pol.label+"-covered%"] = 100 * covered
			}
			o.Text = b.String()
			return o, nil
		},
	})
}
