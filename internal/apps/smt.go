package apps

import (
	"fmt"

	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The SMT fetch-gating model (§1, application 2): several hardware threads
// share one fetch unit. Fetching down a thread whose pending branch is
// mispredicted wastes every instruction until the branch resolves. A
// confidence signal lets the fetch policy deprioritise threads whose next
// prediction is low-confidence, steering bandwidth toward threads likely
// on a correct path — the intuition behind Tullsen et al.'s fetch-policy
// findings that the paper cites.
//
// The model advances branch by branch: each "fetch slot" picks a thread,
// consumes that thread's next branch record plus its Gap instructions, and
// counts the instructions as useful or wasted according to whether the
// branch was mispredicted (everything fetched past a misprediction until
// it resolves is squashed; resolution takes ResolveSlots further slots).

// SMTConfig configures the fetch-gating model.
type SMTConfig struct {
	// ResolveSlots is how many fetch slots pass before a misprediction is
	// discovered and the thread squashed/redirected.
	ResolveSlots int
	// Gated selects the confidence-gated policy: skip threads whose next
	// prediction is low-confidence unless every thread is low-confidence.
	Gated bool
}

// SMTThread is one hardware thread's workload: a trace source with its own
// predictor and confidence estimator (private tables per context).
type SMTThread struct {
	Name string
	Src  trace.Source
	Pred predictor.Predictor
	Est  *core.Estimator
}

// SMTResult summarises a fetch-gating run.
type SMTResult struct {
	Slots        uint64 // fetch slots consumed
	Useful       uint64 // instructions fetched on correct paths
	Wasted       uint64 // instructions squashed after mispredictions
	GatedSkips   uint64 // times the policy skipped a low-confidence thread
	PerThreadUse []uint64
}

// Efficiency returns useful / (useful + wasted) fetch bandwidth.
func (r SMTResult) Efficiency() float64 {
	total := r.Useful + r.Wasted
	if total == 0 {
		return 0
	}
	return float64(r.Useful) / float64(total)
}

// RunSMT drives the threads until any thread's trace ends (keeping thread
// loads comparable) or maxSlots fetch slots elapse. Each thread walks its
// predictor and estimator live (pipeline.LiveLanes) into RunSMTLanes: the
// contexts are private, so a thread's lanes do not depend on when the
// fetch policy picks it.
func RunSMT(threads []*SMTThread, cfg SMTConfig, maxSlots uint64) (SMTResult, error) {
	lanes := make([]*pipeline.Lanes, len(threads))
	for i, th := range threads {
		lanes[i] = pipeline.LiveLanes(th.Src, th.Pred, th.Est)
	}
	return RunSMTLanes(lanes, cfg, maxSlots)
}

// smtThread is one thread's fetch state in RunSMTLanes.
type smtThread struct {
	lanes  *pipeline.Lanes
	next   pipeline.Branch // lookahead branch
	done   bool
	squash int // slots until a pending misprediction resolves
}

// advance pulls the thread's next branch into the lookahead.
func (t *smtThread) advance() error {
	b, ok := t.lanes.Next()
	if !ok {
		t.done = true
		return t.lanes.Err()
	}
	t.next = b
	return nil
}

// RunSMTLanes runs the fetch-gating model over each thread's lanes: its
// gaps, miss bits and low-confidence bits.
func RunSMTLanes(lanes []*pipeline.Lanes, cfg SMTConfig, maxSlots uint64) (SMTResult, error) {
	if len(lanes) == 0 {
		return SMTResult{}, fmt.Errorf("apps: RunSMT needs at least one thread")
	}
	if cfg.ResolveSlots < 1 {
		return SMTResult{}, fmt.Errorf("apps: ResolveSlots must be >= 1")
	}
	res := SMTResult{PerThreadUse: make([]uint64, len(lanes))}
	threads := make([]smtThread, len(lanes))
	// Prime lookaheads.
	for i := range threads {
		threads[i].lanes = lanes[i]
		if err := threads[i].advance(); err != nil {
			return res, err
		}
	}
	rr := 0
	for res.Slots < maxSlots {
		// Retire squash windows.
		for i := range threads {
			if threads[i].squash > 0 {
				threads[i].squash--
			}
		}
		pick := -1
		// Round-robin scan; the gated policy passes over threads whose
		// next prediction is low confidence (or which are mid-squash).
		for scan := 0; scan < len(threads); scan++ {
			i := (rr + scan) % len(threads)
			th := &threads[i]
			if th.done || th.squash > 0 {
				continue
			}
			if cfg.Gated && th.next.Low {
				res.GatedSkips++
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			// All gated or squashed: fall back to any runnable thread so
			// the machine never idles on a full workload.
			for scan := 0; scan < len(threads); scan++ {
				i := (rr + scan) % len(threads)
				if !threads[i].done && threads[i].squash == 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// Everything mid-squash: burn a slot.
			res.Slots++
			continue
		}
		th := &threads[pick]
		rr = (pick + 1) % len(threads)
		fetched := uint64(th.next.Gap) + 1
		if th.next.Miss {
			// The branch itself is useful; what follows until resolution
			// is wasted. Approximate the squashed run as the next
			// ResolveSlots slots of this thread's fetch.
			res.Useful += 1
			res.Wasted += fetched - 1
			th.squash = cfg.ResolveSlots
		} else {
			res.Useful += fetched
			res.PerThreadUse[pick] += fetched
		}
		res.Slots++
		if err := th.advance(); err != nil {
			return res, err
		}
		if th.done {
			return res, nil // stop at first exhausted thread
		}
	}
	return res, nil
}
