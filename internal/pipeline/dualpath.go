package pipeline

import (
	"fmt"

	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Cycle-level selective dual-path execution (§1, application 1): when a
// low-confidence branch is fetched and the spare path context is free, the
// machine fetches both targets. The price is bandwidth — while a fork is
// live, half the fetch width feeds the alternate path — and the reward is
// that a covered misprediction causes no wrong-path window: the correct
// continuation was being fetched all along.
//
// This is the time-domain counterpart of apps.RunDualPath (which counts
// penalty cycles at branch granularity): here the effect shows up directly
// in IPC.

// DualPathConfig describes the dual-path machine.
type DualPathConfig struct {
	// FetchWidth and Depth as in Config.
	FetchWidth int
	Depth      int
	// ForkWidth is the number of fetch slots the alternate path consumes
	// per cycle while a fork is live (taken from the primary path).
	ForkWidth int
}

// DefaultDualPath96 returns the 4-wide, 8-deep machine with a 2-slot
// alternate path.
func DefaultDualPath96() DualPathConfig {
	return DualPathConfig{FetchWidth: 4, Depth: 8, ForkWidth: 2}
}

// DualPathStats reports a dual-path run.
type DualPathStats struct {
	Stats
	Forks       uint64 // second paths spawned
	CoveredMiss uint64 // mispredictions whose wrong-path window a fork removed
	ForkSlots   uint64 // fetch slots diverted to alternate paths
}

// RunDualPath drives the dual-path machine over src, walking pred and est
// live (LiveLanes). The estimator selects fork candidates; only one fork
// may be live at a time (the paper's two-thread limit).
func RunDualPath(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg DualPathConfig) (DualPathStats, error) {
	if est == nil {
		return DualPathStats{}, fmt.Errorf("pipeline: dual-path execution requires a confidence estimator")
	}
	return RunDualPathLanes(LiveLanes(src, pred, est), cfg)
}

// RunDualPathLanes drives the dual-path machine over one trace's lanes: a
// low-confidence branch fetched while the spare context is free forks, and
// the fork then takes ForkWidth slots of every fetch group until the branch
// resolves. Like RunLanes it skips the cycles in which nothing can change
// — wrong-path and drain spans jump to the next resolve, long gaps fetch
// whole cycles at once up to the fork's resolve — with counts identical to
// stepping every cycle.
func RunDualPathLanes(l *Lanes, cfg DualPathConfig) (DualPathStats, error) {
	if cfg.FetchWidth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.ForkWidth < 1 || cfg.ForkWidth >= cfg.FetchWidth {
		return DualPathStats{}, fmt.Errorf("pipeline: ForkWidth %d must be in [1, FetchWidth)", cfg.ForkWidth)
	}
	var st DualPathStats
	fullWidth, forkWidth, depth := uint64(cfg.FetchWidth), uint64(cfg.ForkWidth), uint64(cfg.Depth)
	// forkUntil is the resolve cycle of the live fork and wrongUntil that of
	// the uncovered misprediction fetch is stuck behind (0 = none). At most
	// one of each is in flight: the fork holds the only spare context, and
	// fetch consumes no branch past an uncovered misprediction.
	var forkUntil, wrongUntil uint64
	streamDone := false
	var lastResolve uint64 // resolve cycle of the last branch fetched
	var cur Branch         // the next branch, once loaded
	loaded := false
	var gapLeft uint64 // cur's gap instructions not yet fetched

	for cycle := uint64(0); ; {
		if wrongUntil != 0 && wrongUntil <= cycle {
			wrongUntil = 0
		}
		if forkUntil != 0 && forkUntil <= cycle {
			// Fork resolves: a covered misprediction redirects instantly
			// (the alternate path is already flowing), so no wrong-path
			// window ever opened for it.
			forkUntil = 0
		}
		// Every fork resolves by the last branch's resolve, so past it the
		// machine is empty.
		if streamDone && cycle >= lastResolve {
			st.Cycles = cycle
			return st, nil
		}
		width := fullWidth
		if forkUntil != 0 {
			width -= forkWidth
		}
		if wrongUntil != 0 {
			// Idle down the wrong path until the misprediction (or, first,
			// the fork, which changes the width) resolves.
			next := wrongUntil
			if forkUntil != 0 {
				next = min(next, forkUntil)
				st.ForkSlots += (next - cycle) * forkWidth
			}
			st.WrongPath += (next - cycle) * width
			cycle = next
			continue
		}
		if streamDone {
			// Draining: only a live fork still takes its slots.
			if forkUntil != 0 {
				st.ForkSlots += (forkUntil - cycle) * forkWidth
				forkUntil = 0
			}
			cycle = lastResolve
			continue
		}
		if forkUntil != 0 {
			st.ForkSlots += forkWidth
		}
		for slot := uint64(0); slot < width; {
			if wrongUntil != 0 {
				st.WrongPath += width - slot
				break
			}
			if !loaded {
				b, ok := l.Next()
				if !ok {
					if l.err != nil {
						return st, l.err
					}
					streamDone = true
					break
				}
				cur, loaded, gapLeft = b, true, uint64(b.Gap)
			}
			if slot == 0 && gapLeft >= width {
				// Whole cycles of gap, up to the fork's resolve (which widens
				// the group); this cycle's fork slots are already counted.
				k := gapLeft / width
				if forkUntil != 0 {
					k = min(k, forkUntil-cycle)
					st.ForkSlots += (k - 1) * forkWidth
				}
				st.Retired += k * width
				gapLeft -= k * width
				cycle += k - 1
				break
			}
			if gapLeft > 0 {
				k := min(gapLeft, width-slot)
				st.Retired += k
				slot += k
				gapLeft -= k
				continue
			}
			loaded = false
			st.Retired++
			slot++
			st.Branches++
			lastResolve = cycle + depth
			forked := false
			if cur.Low && forkUntil == 0 {
				// Spare context free: follow both paths for this branch.
				forkUntil = lastResolve
				forked = true
				st.Forks++
			}
			if cur.Miss {
				st.Misses++
				if forked {
					// Covered: the alternate path carries the correct
					// continuation; no wrong-path window.
					st.CoveredMiss++
				} else {
					wrongUntil = lastResolve
				}
			}
		}
		cycle++
	}
}
