package apps

import (
	"fmt"

	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Pipeline gating: the best-known follow-on use of this paper's
// confidence estimators (Manne, Klauser & Grunwald, ISCA '98). When
// several unresolved low-confidence branches are in flight, the
// probability that fetch is already on a wrong path is high, so the
// front-end stalls ("gates") instead of fetching instructions that will
// likely be squashed. The trade-off: gating saves wrong-path work
// (energy) at a small performance cost from stalling on paths that turn
// out correct.
//
// The model advances branch by branch. Every fetched branch carries
// Gap+1 instructions. Instructions fetched while a mispredicted branch is
// unresolved are wrong-path work; instructions not fetched because the
// gate was closed are stall slots. Branches resolve a fixed number of
// branch-fetches after they enter the window.

// GateConfig configures the pipeline-gating model.
type GateConfig struct {
	// ResolveDistance is how many subsequent branch fetches pass before a
	// branch resolves (mispredictions squash; gates reopen).
	ResolveDistance int
	// Threshold is the number of in-flight low-confidence branches at
	// which fetch gates. 0 disables gating (the baseline machine).
	Threshold int
}

// GateResult summarises one gating run.
type GateResult struct {
	Branches uint64
	Misses   uint64
	Useful   uint64 // instructions fetched on the correct path
	Wasted   uint64 // wrong-path instructions fetched (squashed work)
	Stalled  uint64 // instructions whose fetch the gate deferred
}

// WastedFrac returns wrong-path work as a fraction of all fetched work.
func (r GateResult) WastedFrac() float64 {
	total := r.Useful + r.Wasted
	if total == 0 {
		return 0
	}
	return float64(r.Wasted) / float64(total)
}

// StallFrac returns deferred fetch as a fraction of all fetch demand.
func (r GateResult) StallFrac() float64 {
	total := r.Useful + r.Wasted + r.Stalled
	if total == 0 {
		return 0
	}
	return float64(r.Stalled) / float64(total)
}

// pendingBranch is one unresolved branch in a gate's window.
type pendingBranch struct {
	lowConf bool
	mispred bool
}

// RunGating replays src through pred and est under the gating policy.
func RunGating(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg GateConfig) (GateResult, error) {
	res, err := RunGatingBatch(src, pred, est, []GateConfig{cfg})
	if len(res) == 0 {
		return GateResult{}, err
	}
	return res[0], err
}

// RunGatingBatch evaluates several gate configurations over a single trace
// walk through one shared predictor and estimator (pipeline.LiveLanes).
// The gate only defers fetch — it never alters what the predictor or
// estimator observe — so the (confident, incorrect) stream is the same for
// every threshold and each configuration's result is identical to its solo
// RunGating run.
func RunGatingBatch(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfgs []GateConfig) ([]GateResult, error) {
	return RunGatingLanes(pipeline.LiveLanes(src, pred, est), cfgs)
}

// gateState is one configuration's private bookkeeping. Every branch
// resolves exactly ResolveDistance branch fetches after it enters the
// window, so the window is a ring of the last ResolveDistance branches:
// the slot a new branch takes holds the one resolving as it arrives.
type gateState struct {
	cfg            GateConfig
	res            GateResult
	ring           []pendingBranch
	lowInFlight    int
	wrongPathDepth int
}

// RunGatingLanes evaluates gate configurations over one trace's lanes.
func RunGatingLanes(l *pipeline.Lanes, cfgs []GateConfig) ([]GateResult, error) {
	states := make([]gateState, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.ResolveDistance < 1 {
			return nil, fmt.Errorf("apps: ResolveDistance must be >= 1, got %d", cfg.ResolveDistance)
		}
		if cfg.Threshold < 0 {
			return nil, fmt.Errorf("apps: Threshold must be >= 0, got %d", cfg.Threshold)
		}
		states[i] = gateState{cfg: cfg, ring: make([]pendingBranch, cfg.ResolveDistance)}
	}
	finish := func() []GateResult {
		out := make([]GateResult, len(states))
		for i := range states {
			out[i] = states[i].res
		}
		return out
	}
	for k := 0; ; k++ {
		b, ok := l.Next()
		if !ok {
			return finish(), l.Err()
		}
		work := uint64(b.Gap) + 1
		for i := range states {
			st := &states[i]
			slot := &st.ring[k%len(st.ring)]
			if k >= len(st.ring) {
				// Resolve the branch fetched ResolveDistance fetches ago.
				if slot.lowConf {
					st.lowInFlight--
				}
				if slot.mispred {
					st.wrongPathDepth--
				}
			}

			gated := st.cfg.Threshold > 0 && st.lowInFlight >= st.cfg.Threshold
			switch {
			case gated:
				// Fetch deferred: neither useful nor wasted work this slot.
				st.res.Stalled += work
			case st.wrongPathDepth > 0:
				// Fetching past an unresolved misprediction: squashed later.
				st.res.Wasted += work
			default:
				st.res.Useful += work
			}

			st.res.Branches++
			if b.Miss {
				st.res.Misses++
			}
			*slot = pendingBranch{lowConf: b.Low, mispred: b.Miss && !gated}
			if slot.lowConf {
				st.lowInFlight++
			}
			if slot.mispred {
				st.wrongPathDepth++
			}
		}
	}
}
