package pipeline

import (
	"fmt"
	"io"

	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The oracles: the pre-lane machines, kept verbatim (renamed only) as the
// reference every lane-fed machine is property-tested against. They walk
// the predictor and estimator per fetched branch and step every cycle.

// outBranch tracks an unresolved branch in flight.
type outBranch struct {
	resolveAt uint64
	mispred   bool
	lowConf   bool
}

// instrStream expands a branch trace into an instruction-granularity
// stream: Gap non-branch instructions precede each branch.
type instrStream struct {
	src     trace.Source
	cur     trace.Record
	gapLeft int
	loaded  bool
	done    bool
}

// nextBulk returns the next fetch group from the stream: either gap > 0
// non-branch instructions (at most max of them — the remaining fetch slots
// this cycle), or the next conditional branch (gap == 0, rec valid). ok is
// false once the stream is exhausted. Consuming gap instructions in bulk
// instead of one call per instruction keeps the per-cycle cost at O(fetch
// groups), not O(instructions); the counts produced are identical.
func (s *instrStream) nextBulk(max int) (gap int, isBranch bool, rec trace.Record, ok bool, err error) {
	if s.done {
		return 0, false, trace.Record{}, false, nil
	}
	if !s.loaded {
		r, err := s.src.Next()
		if err == io.EOF {
			s.done = true
			return 0, false, trace.Record{}, false, nil
		}
		if err != nil {
			return 0, false, trace.Record{}, false, err
		}
		s.cur = r
		s.gapLeft = int(r.Gap)
		s.loaded = true
	}
	if s.gapLeft > 0 {
		k := s.gapLeft
		if k > max {
			k = max
		}
		s.gapLeft -= k
		return k, false, trace.Record{}, true, nil
	}
	s.loaded = false
	return 0, true, s.cur, true, nil
}

// Run drives the machine over src. The estimator may be nil when gating is
// disabled; with gating enabled it must be non-nil.
func oracleRun(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg Config) (Stats, error) {
	if cfg.FetchWidth < 1 {
		return Stats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return Stats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.GateThreshold < 0 {
		return Stats{}, fmt.Errorf("pipeline: GateThreshold must be >= 0, got %d", cfg.GateThreshold)
	}
	if cfg.GateThreshold > 0 && est == nil {
		return Stats{}, fmt.Errorf("pipeline: gating requires a confidence estimator")
	}
	var st Stats
	stream := &instrStream{src: src}
	// window is consumed from head and appended at the tail; compacting once
	// drained (instead of re-slicing) reuses its capacity, keeping the hot
	// loop allocation-free.
	var window []outBranch
	head := 0
	lowInFlight := 0
	wrongPath := false
	streamDone := false

	for cycle := uint64(0); ; cycle++ {
		// Resolve branches due this cycle (in fetch order).
		for head < len(window) && window[head].resolveAt <= cycle {
			b := window[head]
			head++
			if b.lowConf {
				lowInFlight--
			}
			if b.mispred {
				// Redirect: younger in-flight branches were wrong-path
				// bookkeeping only (none were real — fetch stopped
				// consuming the stream), so simply leave wrong-path mode.
				wrongPath = false
			}
		}
		if head == len(window) {
			window, head = window[:0], 0
		}

		if streamDone && head == len(window) {
			st.Cycles = cycle
			return st, nil
		}

		// Gate check: a closed gate idles the whole fetch group.
		if cfg.GateThreshold > 0 && lowInFlight >= cfg.GateThreshold {
			st.GateStalls += uint64(cfg.FetchWidth)
			continue
		}

		// Fetch up to FetchWidth instructions.
		for slot := 0; slot < cfg.FetchWidth; {
			if wrongPath {
				// Fetching down the mispredicted path: pure waste for the
				// rest of the group.
				st.WrongPath += uint64(cfg.FetchWidth - slot)
				break
			}
			if streamDone {
				break
			}
			gap, isBranch, rec, ok, err := stream.nextBulk(cfg.FetchWidth - slot)
			if err != nil {
				return st, err
			}
			if !ok {
				streamDone = true
				break
			}
			if !isBranch {
				st.Retired += uint64(gap)
				slot += gap
				continue
			}
			st.Retired++
			slot++
			st.Branches++
			confident := true
			if est != nil {
				confident = est.Confident(rec)
			}
			incorrect := pred.Predict(rec) != rec.Taken
			pred.Update(rec)
			if est != nil {
				est.Update(rec, incorrect)
			}
			if incorrect {
				st.Misses++
				wrongPath = true
			}
			b := outBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect, lowConf: !confident}
			if b.lowConf {
				lowInFlight++
			}
			window = append(window, b)
			if incorrect {
				// Remaining slots this cycle go down the wrong path.
				continue
			}
		}
	}
}

// RunDualPath drives the dual-path machine over src. The estimator
// selects fork candidates; only one fork may be live at a time (the
// paper's two-thread limit).
func oracleRunDualPath(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg DualPathConfig) (DualPathStats, error) {
	if cfg.FetchWidth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return DualPathStats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.ForkWidth < 1 || cfg.ForkWidth >= cfg.FetchWidth {
		return DualPathStats{}, fmt.Errorf("pipeline: ForkWidth %d must be in [1, FetchWidth)", cfg.ForkWidth)
	}
	if est == nil {
		return DualPathStats{}, fmt.Errorf("pipeline: dual-path execution requires a confidence estimator")
	}
	var st DualPathStats
	stream := &instrStream{src: src}
	// Consumed from head, appended at the tail; compacted when drained so
	// the hot loop stays allocation-free (see Run).
	var window []outBranch
	head := 0
	// forkUntil is the resolve cycle of the live fork (0 = no live fork);
	// forkCovers reports whether the forked branch was mispredicted.
	var forkUntil uint64
	forkCovers := false
	wrongPath := false
	streamDone := false

	for cycle := uint64(0); ; cycle++ {
		for head < len(window) && window[head].resolveAt <= cycle {
			b := window[head]
			head++
			if b.mispred {
				wrongPath = false
			}
		}
		if head == len(window) {
			window, head = window[:0], 0
		}
		if forkUntil != 0 && forkUntil <= cycle {
			// Fork resolves: a covered misprediction redirects instantly
			// (the alternate path is already flowing), so no wrong-path
			// window ever opened for it.
			forkUntil = 0
			forkCovers = false
		}

		if streamDone && head == len(window) && forkUntil == 0 {
			st.Cycles = cycle
			return st, nil
		}

		width := cfg.FetchWidth
		if forkUntil != 0 {
			width -= cfg.ForkWidth
			st.ForkSlots += uint64(cfg.ForkWidth)
		}
		for slot := 0; slot < width; {
			if wrongPath {
				st.WrongPath += uint64(width - slot)
				break
			}
			if streamDone {
				break
			}
			gap, isBranch, rec, ok, err := stream.nextBulk(width - slot)
			if err != nil {
				return st, err
			}
			if !ok {
				streamDone = true
				break
			}
			if !isBranch {
				st.Retired += uint64(gap)
				slot += gap
				continue
			}
			st.Retired++
			slot++
			st.Branches++
			confident := est.Confident(rec)
			incorrect := pred.Predict(rec) != rec.Taken
			pred.Update(rec)
			est.Update(rec, incorrect)

			forked := false
			if !confident && forkUntil == 0 {
				// Spare context free: follow both paths for this branch.
				forkUntil = cycle + uint64(cfg.Depth)
				forkCovers = incorrect
				forked = true
				st.Forks++
			}
			if incorrect {
				st.Misses++
				if forked && forkCovers {
					// Covered: the alternate path carries the correct
					// continuation; no wrong-path window.
					st.CoveredMiss++
				} else {
					wrongPath = true
				}
			}
			window = append(window, outBranch{resolveAt: cycle + uint64(cfg.Depth), mispred: incorrect && !(forked && forkCovers)})
		}
	}
}
