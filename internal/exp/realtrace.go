package exp

import (
	"fmt"
	"strings"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// The realtrace experiment runs the comparison the paper's §6 sketches as
// future work: modern predictors carry their own per-prediction confidence
// estimate — TAGE's provider-counter strength, the perceptron's output
// margin — so how does that *native* signal stack up against the paper's
// dedicated CIR tables? It replays one recorded ChampSim trace through
// three predictors on identical branch streams:
//
//   - gshare-64K, the paper's reference predictor, with the CIR tables
//     only (gshare has no native confidence estimate),
//   - TAGE and the hashed perceptron, each with their native confidence
//     lane (core.NativeConfidence over the 2-bit annotation state) next
//     to the same CIR tables,
//
// and reports each signal's mispredict coverage at 20% of dynamic
// branches plus the predictor's miss rate — native confidence and CIR
// tables side by side, on the same real trace.
//
// The experiment is OptIn and needs Config.TraceFile: record a trace with
// `tracegen -format champsim` (or bring any ChampSim-format trace) and
// pass it with -trace. The trace's identity is its content digest, so
// every cache tier (annotated streams, bucket streams, curves, daemon
// report cache) warms across runs and machines regardless of the path.
func init() {
	register(Experiment{
		ID:    "realtrace",
		Title: "Native predictor confidence vs CIR tables on a recorded trace",
		Paper: "not in the paper; §6 names self-confident predictors as the natural follow-on",
		OptIn: true,
		Run:   runRealTrace,
	})
}

// predFromRegistry adapts a registered predictor configuration into a
// PredSpec without duplicating its geometry here.
func predFromRegistry(key string) PredSpec {
	return PredSpec{Key: key, New: func() predictor.Predictor {
		p, err := predictor.Build(key)
		if err != nil {
			panic(err)
		}
		return p
	}}
}

func runRealTrace(s *Session) (*Output, error) {
	cfg := s.Config()
	if cfg.TraceFile == "" {
		return nil, fmt.Errorf("realtrace replays a recorded trace: record one with `tracegen -bench real_gcc -format champsim -o gcc.champsim` and pass -trace gcc.champsim")
	}
	spec, err := workload.TraceSpec("", cfg.TraceFile)
	if err != nil {
		return nil, err
	}
	// Resolve the budget against the recording up front so both engine
	// forms — monolithic and streaming — key their artifacts on the same
	// branch count.
	n := cfg.Branches
	if n == 0 || n > spec.TraceCount {
		n = spec.TraceCount
	}

	// Columns: the native lane first, then the paper's CIR tables. The
	// native mechanism is state-coupled (it reads the predictor's 2-bit
	// confidence annotation), so it rides the annotated path; the CIR
	// tables stay factorable and keep their tally kernels.
	cols := []struct {
		label string
		newM  func() core.Mechanism
	}{
		{"native", func() core.Mechanism { return core.NewAnnotatedConfidence() }},
		{"resetting", func() core.Mechanism { return core.PaperResetting() }},
		{"onelevel-pc^bhr", func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) }},
	}
	legs := []struct {
		pred   PredSpec
		native bool
	}{
		{predGshare64K, false}, // no native estimate: CIR tables only
		{predFromRegistry("tage"), true},
		{predFromRegistry("perceptron"), true},
	}

	o := &Output{
		ID:      "realtrace",
		Title:   "native confidence vs CIR tables on a recorded trace",
		Scalars: map[string]float64{},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d conditional branches (sha256 %s…), budget %d\n\n",
		spec.Name, spec.TraceCount, spec.TraceDigest[:12], n)
	fmt.Fprintf(&b, "%-12s %7s", "predictor", "miss%")
	for _, c := range cols {
		fmt.Fprintf(&b, "  %18s", c.label+"@20%")
	}
	b.WriteString("\n")

	for _, leg := range legs {
		active := cols
		if !leg.native {
			active = cols[1:]
		}
		newMechs := make([]func() core.Mechanism, len(active))
		for i, c := range active {
			newMechs[i] = c.newM
		}
		// The budget differs from the session's, so these passes bypass the
		// session pass cache and hit the sim engine directly — streaming
		// when the session streams.
		scfg := sim.SuiteConfig{
			Branches:        n,
			Specs:           []workload.Spec{spec},
			SegmentBranches: cfg.SegmentBranches,
		}
		rs, err := sim.RunSuiteAnnotated(scfg, leg.pred.Key, leg.pred.New, newMechs)
		if err != nil {
			return nil, fmt.Errorf("realtrace %s: %w", leg.pred.Key, err)
		}
		miss := 100 * rs[0].CompositeMissRate()
		fmt.Fprintf(&b, "%-12s %6.2f%%", leg.pred.Key, miss)
		o.Scalars["miss%/"+leg.pred.Key] = miss
		ri := 0
		for _, c := range cols {
			if !leg.native && c.label == "native" {
				fmt.Fprintf(&b, "  %18s", "—")
				continue
			}
			curve := s.Pooled(rs[ri].Runs).Curve()
			cov := curve.MispredsAt(20)
			fmt.Fprintf(&b, "  %17.2f%%", cov)
			o.Scalars[leg.pred.Key+"/"+c.label+"@20%"] = cov
			ri++
		}
		b.WriteString("\n")
	}
	o.Text = b.String()
	return o, nil
}
