// Package pipeline is a cycle-driven front-end model for evaluating
// confidence-directed fetch policies at IPC level. It complements the
// branch-granularity models in internal/apps: here fetch bandwidth, branch
// resolution latency and wrong-path fetch are accounted per cycle, so
// policies report both performance (IPC) and wasted work.
//
// The machine is a W-wide in-order front end. Instructions stream from a
// branch trace (each record is Gap non-branch instructions followed by one
// conditional branch). A branch resolves Depth cycles after it is fetched;
// a mispredicted branch puts fetch on the wrong path until it resolves —
// those fetch slots are wasted work, and the time cost of a misprediction
// is the Depth-cycle refill this implies. Confidence-based gating stalls
// fetch while too many low-confidence branches are unresolved, saving
// wrong-path slots at the price of stalling correct-path fetch when the
// estimator was overly pessimistic.
package pipeline

import (
	"fmt"

	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// ConfidenceSignal is the estimator interface the front end consumes:
// core.Estimator satisfies it, and tests/experiments may substitute an
// oracle for upper-bound studies.
type ConfidenceSignal interface {
	// Confident reports the high/low signal for the upcoming prediction.
	Confident(r trace.Record) bool
	// Update trains the estimator with the prediction's correctness.
	Update(r trace.Record, incorrect bool)
}

// Config describes the modelled machine.
type Config struct {
	// FetchWidth is the number of instructions fetched per cycle.
	FetchWidth int
	// Depth is the number of cycles between fetching a branch and
	// resolving it (the misprediction penalty).
	Depth int
	// GateThreshold stalls fetch while at least this many low-confidence
	// branches are unresolved; 0 disables gating.
	GateThreshold int
}

// Default96 returns a mid-1990s-flavoured 4-wide, 8-deep machine.
func Default96() Config { return Config{FetchWidth: 4, Depth: 8} }

// Stats is the outcome of one pipeline run.
type Stats struct {
	Cycles     uint64 // total cycles until the stream drains
	Retired    uint64 // correct-path instructions fetched (eventually retired)
	WrongPath  uint64 // wrong-path instructions fetched (squashed work)
	GateStalls uint64 // fetch slots unused because the gate was closed
	Branches   uint64 // conditional branches retired
	Misses     uint64 // mispredicted branches
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// WasteFrac returns wrong-path work as a fraction of all fetched work.
func (s Stats) WasteFrac() float64 {
	total := s.Retired + s.WrongPath
	if total == 0 {
		return 0
	}
	return float64(s.WrongPath) / float64(total)
}

// pending is an in-flight branch whose resolve changes machine state: a
// low-confidence one (it holds the gate) or a mispredicted one (it ends
// the wrong-path window). Every other branch resolves silently, so the
// machine never queues it; the drain waits on the last branch fetched.
type pending struct {
	resolveAt uint64
	mispred   bool
	lowConf   bool
}

// Run drives the machine over src, walking pred and est live (LiveLanes).
// The estimator may be nil when gating is disabled; with gating enabled it
// must be non-nil.
func Run(src trace.Source, pred predictor.Predictor, est ConfidenceSignal, cfg Config) (Stats, error) {
	if cfg.GateThreshold > 0 && est == nil {
		return Stats{}, fmt.Errorf("pipeline: gating requires a confidence estimator")
	}
	return RunLanes(LiveLanes(src, pred, est), cfg)
}

// RunLanes drives the machine over one trace's lanes. Per cycle the
// machine resolves the branches due, stalls a whole fetch group while the
// gate is closed, and otherwise fetches up to FetchWidth instructions —
// gap instructions, then the branch — with everything after a
// misprediction fetched down the wrong path until it resolves.
//
// Cycles in which nothing can change are skipped rather than stepped:
// wrong-path, closed-gate and drain spans jump straight to the next resolve
// (only a resolve can reopen the gate or end a wrong-path window), and
// while the gate is open the whole cycles of a long gap are fetched at
// once (a resolve can only open the gate further, and no branch is fetched
// to close it). The counts are exactly those of stepping every cycle.
func RunLanes(l *Lanes, cfg Config) (Stats, error) {
	if cfg.FetchWidth < 1 {
		return Stats{}, fmt.Errorf("pipeline: FetchWidth must be >= 1, got %d", cfg.FetchWidth)
	}
	if cfg.Depth < 1 {
		return Stats{}, fmt.Errorf("pipeline: Depth must be >= 1, got %d", cfg.Depth)
	}
	if cfg.GateThreshold < 0 {
		return Stats{}, fmt.Errorf("pipeline: GateThreshold must be >= 0, got %d", cfg.GateThreshold)
	}
	var st Stats
	width, depth, gate := uint64(cfg.FetchWidth), uint64(cfg.Depth), cfg.GateThreshold
	// queue is consumed from head and appended at the tail; compacting once
	// drained (instead of re-slicing) reuses its capacity.
	var queue []pending
	head := 0
	lowInFlight := 0
	wrongPath := false
	streamDone := false
	var lastResolve uint64 // resolve cycle of the last branch fetched
	var cur Branch         // the next branch, once loaded
	loaded := false
	var gapLeft uint64 // cur's gap instructions not yet fetched

	for cycle := uint64(0); ; {
		for head < len(queue) && queue[head].resolveAt <= cycle {
			b := queue[head]
			head++
			if b.lowConf {
				lowInFlight--
			}
			if b.mispred {
				wrongPath = false
			}
		}
		if head == len(queue) {
			queue, head = queue[:0], 0
		}
		if streamDone && cycle >= lastResolve {
			st.Cycles = cycle
			return st, nil
		}
		gated := gate > 0 && lowInFlight >= gate
		if gated || wrongPath {
			// Idle until the next resolve: a closed gate idles the whole
			// fetch group, a wrong-path window wastes it.
			next := queue[head].resolveAt
			if gated {
				st.GateStalls += (next - cycle) * width
			} else {
				st.WrongPath += (next - cycle) * width
			}
			cycle = next
			continue
		}
		if streamDone {
			// Draining: no fetch, and the gate can only open further.
			cycle = lastResolve
			continue
		}
		for slot := uint64(0); slot < width; {
			if wrongPath {
				// Fetching down the mispredicted path: pure waste for the
				// rest of the group.
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
				// Whole cycles of gap: this one and k-1 more.
				k := gapLeft / width
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
			low := cur.Low && gate > 0
			if cur.Miss {
				st.Misses++
				wrongPath = true
			}
			if low {
				lowInFlight++
			}
			if cur.Miss || low {
				queue = append(queue, pending{resolveAt: lastResolve, mispred: cur.Miss, lowConf: low})
			}
		}
		cycle++
	}
}
