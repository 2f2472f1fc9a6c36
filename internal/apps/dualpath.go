// Package apps implements the four applications that motivate the paper
// (§1): selective dual-path execution, SMT fetch gating, a confidence-based
// hybrid-predictor selector, and a branch prediction reverser. Each is a
// simulation model quantifying what the confidence signal buys; the models
// are deliberately simple — branch-granularity cost models, not cycle
// simulators — because the paper's claims are about misprediction coverage
// per unit of resource, which these models measure directly.
package apps

import (
	"fmt"

	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// DualPathConfig configures the selective dual-path execution model.
type DualPathConfig struct {
	// MispredictPenalty is the pipeline refill cost of an uncovered
	// misprediction, in cycles (typical mid-90s depth: ~5-15).
	MispredictPenalty uint64
	// ForkPenalty is the per-fork cost in cycles: fetch bandwidth stolen
	// from the primary path while both paths are followed.
	ForkPenalty uint64
	// MaxThreads bounds simultaneous paths; 2 means one extra path may be
	// live at a time (the paper's "limit of two threads").
	MaxThreads int
	// ResolveDistance is how many subsequent branches resolve before a
	// forked branch retires its second path, modelling the window during
	// which the fork occupies the spare thread.
	ResolveDistance int
}

// DefaultDualPath returns a mid-1990s-flavoured configuration.
func DefaultDualPath() DualPathConfig {
	return DualPathConfig{MispredictPenalty: 10, ForkPenalty: 1, MaxThreads: 2, ResolveDistance: 2}
}

// DualPathResult summarises one dual-path run.
type DualPathResult struct {
	Branches    uint64
	Misses      uint64
	Forks       uint64 // second paths spawned
	CoveredMiss uint64 // mispredictions whose penalty a fork absorbed
	DeniedForks uint64 // low-confidence branches that found no free thread
	BaseCycles  uint64 // penalty cycles without dual-path execution
	DualCycles  uint64 // penalty + fork cycles with selective dual-path
}

// ForkRate returns forks per dynamic branch.
func (r DualPathResult) ForkRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Forks) / float64(r.Branches)
}

// Coverage returns the fraction of mispredictions absorbed by forks.
func (r DualPathResult) Coverage() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.CoveredMiss) / float64(r.Misses)
}

// PenaltySavings returns the fraction of baseline penalty cycles removed.
func (r DualPathResult) PenaltySavings() float64 {
	if r.BaseCycles == 0 {
		return 0
	}
	return 1 - float64(r.DualCycles)/float64(r.BaseCycles)
}

// RunDualPath replays src through pred and est, forking a second path for
// every low-confidence prediction when a thread slot is free. A covered
// misprediction costs nothing beyond its fork; an uncovered one pays the
// full penalty. It walks pred and est live (pipeline.LiveLanes) into
// RunDualPathLanes.
func RunDualPath(src trace.Source, pred predictor.Predictor, est *core.Estimator, cfg DualPathConfig) (DualPathResult, error) {
	return RunDualPathLanes(pipeline.LiveLanes(src, pred, est), cfg)
}

// RunDualPathLanes runs the dual-path model over one trace's lanes: only
// whether each prediction missed and whether its confidence was low.
func RunDualPathLanes(l *pipeline.Lanes, cfg DualPathConfig) (DualPathResult, error) {
	if cfg.MaxThreads < 1 {
		return DualPathResult{}, fmt.Errorf("apps: MaxThreads must be >= 1, got %d", cfg.MaxThreads)
	}
	var res DualPathResult
	// busy[i] counts remaining branches until the occupying fork resolves.
	busy := make([]int, cfg.MaxThreads-1)
	for {
		b, ok := l.Next()
		if !ok {
			return res, l.Err()
		}
		// Age outstanding forks.
		for i := range busy {
			if busy[i] > 0 {
				busy[i]--
			}
		}
		res.Branches++
		forked := false
		if b.Low {
			for i := range busy {
				if busy[i] == 0 {
					busy[i] = cfg.ResolveDistance
					forked = true
					break
				}
			}
			if !forked {
				res.DeniedForks++
			}
		}
		if forked {
			res.Forks++
			res.DualCycles += cfg.ForkPenalty
		}
		if b.Miss {
			res.Misses++
			res.BaseCycles += cfg.MispredictPenalty
			if forked {
				res.CoveredMiss++
			} else {
				res.DualCycles += cfg.MispredictPenalty
			}
		}
	}
}
