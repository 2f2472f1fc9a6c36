package pipeline

import (
	"io"

	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// Lanes is the per-branch input of every cycle model, here and in
// internal/apps. A model needs three things per branch: its gap (the
// non-branch instructions fetched before it), whether its prediction
// missed, and whether its confidence was low. The paper's estimators are
// passive observers — they train on the predictor's correctness and never
// steer it — so these lanes are a pure function of the trace, the
// predictor and the estimator, independent of any machine's timing, and
// one machine can be fed them two ways:
//
//   - NewLanes wraps whole-trace lanes already held elsewhere (the
//     engine's memoized annotated and bucket streams), with no predictor
//     or estimator in the loop;
//   - LiveLanes walks a trace source through a live predictor and
//     estimator, one record per branch the machine consumes, holding
//     nothing of the trace.
//
// A Lanes value is a single-use cursor: a machine consumes it once.
type Lanes struct {
	// Whole-trace lanes.
	recs      []trace.Record // each branch's gap
	miss, low []uint64       // packed bits, bit i of word i/64
	i         int            // index of the next branch

	// Live feeding; src is nil for whole-trace lanes and once the source
	// is exhausted.
	src    trace.Source
	pred   predictor.Predictor
	est    ConfidenceSignal
	oracle bool  // low exactly when the prediction missed
	err    error // the source failure that ended the walk, if any
}

// Branch is one branch's lanes as a machine consumes them.
type Branch struct {
	Gap       uint32 // non-branch instructions fetched before the branch
	Miss, Low bool   // the prediction missed; its confidence was low
}

// NewLanes wraps whole-trace lanes: recs supplies each branch's gap, miss
// and low are packed bit lanes aligned with recs, bit i of word i/64,
// least significant first. low may be nil: no branch is low confidence
// (a machine without an estimator). The slices are only read.
func NewLanes(recs []trace.Record, miss, low []uint64) *Lanes {
	if low == nil {
		low = make([]uint64, len(miss))
	}
	return &Lanes{recs: recs, miss: miss, low: low}
}

// LiveLanes feeds a machine from src through pred and est, which the walk
// trains exactly as a machine calling them per fetched branch would: per
// record, est's signal is read first, then pred predicts and trains, then
// est trains on the prediction's correctness. est may be nil: no branch is
// low confidence. A source failure surfaces when the machine reaches the
// failing record.
func LiveLanes(src trace.Source, pred predictor.Predictor, est ConfidenceSignal) *Lanes {
	return &Lanes{src: src, pred: pred, est: est}
}

// Oracle makes the low-confidence lane the miss lane itself — a perfect
// estimator, the upper bound for any real one — and returns l. A live
// estimator's signal is then unused, so the walk stops consulting it.
func (l *Lanes) Oracle() *Lanes {
	l.oracle = true
	l.est = nil
	l.low = l.miss
	return l
}

// Err reports the source failure that ended the lanes early, if any.
func (l *Lanes) Err() error { return l.err }

// Next returns the next branch's lanes; ok is false once the lanes are
// exhausted (Err then tells a failure from the end of the trace). Live
// lanes walk one record through the estimator and the predictor.
func (l *Lanes) Next() (Branch, bool) {
	if l.src == nil {
		i := l.i
		if i >= len(l.recs) {
			return Branch{}, false
		}
		l.i = i + 1
		w, sh := i>>6, uint(i)&63
		return Branch{Gap: l.recs[i].Gap, Miss: l.miss[w]>>sh&1 != 0, Low: l.low[w]>>sh&1 != 0}, true
	}
	r, err := l.src.Next()
	if err != nil {
		if err != io.EOF {
			l.err = err
		}
		l.src = nil
		return Branch{}, false
	}
	b := Branch{Gap: r.Gap}
	if l.est != nil {
		b.Low = !l.est.Confident(r)
	}
	b.Miss = l.pred.Predict(r) != r.Taken
	l.pred.Update(r)
	if l.est != nil {
		l.est.Update(r, b.Miss)
	}
	if l.oracle {
		b.Low = b.Miss
	}
	return b, true
}
