package apps

import (
	"io"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// The hybrid-predictor selector (§1, application 3): a combining predictor
// needs to pick which component to believe for each branch. McFarling's
// chooser is a 2-bit counter trained on relative correctness; the paper
// suggests comparing explicit per-component confidence estimates instead.
// ConfidenceHybrid does exactly that: each component predictor carries its
// own resetting-counter confidence table (trained on that component's
// correctness), and the prediction comes from the component whose current
// confidence bucket is higher.

// ConfidenceHybrid combines two predictors with confidence-based selection.
type ConfidenceHybrid struct {
	a, b       predictor.Predictor
	estA, estB core.Mechanism
	// preferB breaks confidence ties (the historically stronger
	// component should win ties; gshare usually goes in slot b).
	preferB bool
}

// NewConfidenceHybrid builds a confidence-selected hybrid. estA and estB
// must be fresh mechanisms of comparable geometry; preferB selects the
// tie-break winner.
func NewConfidenceHybrid(a, b predictor.Predictor, estA, estB core.Mechanism, preferB bool) *ConfidenceHybrid {
	return &ConfidenceHybrid{a: a, b: b, estA: estA, estB: estB, preferB: preferB}
}

// DefaultConfidenceHybrid pairs a bimodal and a gshare predictor with
// 2^12-entry resetting-counter confidence tables.
func DefaultConfidenceHybrid() *ConfidenceHybrid {
	return NewConfidenceHybrid(predictor.NewBimodal(12), predictor.NewGshare(12, 12), core.SmallResetting(12), core.SmallResetting(12), true)
}

// Predict selects the component with the higher confidence bucket.
func (h *ConfidenceHybrid) Predict(r trace.Record) bool {
	ca, cb := h.estA.Bucket(r), h.estB.Bucket(r)
	if ca > cb || (ca == cb && !h.preferB) {
		return h.a.Predict(r)
	}
	return h.b.Predict(r)
}

// Update trains both components and both confidence tables with their own
// correctness.
func (h *ConfidenceHybrid) Update(r trace.Record) {
	incA := h.a.Predict(r) != r.Taken
	incB := h.b.Predict(r) != r.Taken
	h.a.Update(r)
	h.b.Update(r)
	h.estA.Update(r, incA)
	h.estB.Update(r, incB)
}

// Reset restores all four structures.
func (h *ConfidenceHybrid) Reset() {
	h.a.Reset()
	h.b.Reset()
	h.estA.Reset()
	h.estB.Reset()
}

// Name implements predictor.Predictor.
func (h *ConfidenceHybrid) Name() string {
	return "conf-hybrid(" + h.a.Name() + "," + h.b.Name() + ")"
}

// HybridComparison reports misprediction rates for the confidence-selected
// hybrid, a McFarling tournament of the same components, and both solo
// components, on the same trace.
type HybridComparison struct {
	Branches   uint64
	ConfHybrid uint64 // misses
	Tournament uint64
	SoloA      uint64
	SoloB      uint64
}

// Rate converts a miss count to a rate over the comparison's branches.
func (h HybridComparison) Rate(misses uint64) float64 {
	if h.Branches == 0 {
		return 0
	}
	return float64(misses) / float64(h.Branches)
}

// add accounts one branch: each component's miss and confidence bucket,
// and the tournament's miss. The confidence-selected hybrid (which, as in
// CompareHybrids, lets b win ties) misses exactly when the component with
// the higher bucket does: the tables train on their own component's
// correctness, never on the hybrid's choice, so the choice is a pure
// function of these lanes.
func (h *HybridComparison) add(missA, missB, missTour bool, bucketA, bucketB uint64) {
	h.Branches++
	conf := missB
	if bucketA > bucketB {
		conf = missA
	}
	if conf {
		h.ConfHybrid++
	}
	if missTour {
		h.Tournament++
	}
	if missA {
		h.SoloA++
	}
	if missB {
		h.SoloB++
	}
}

// HybridLanes is one trace's input to the hybrid comparison: N branches'
// packed miss bits (bit i of word i/64) for component a, component b and
// their tournament, and each component's bucket per branch in its own
// 12-bit resetting-counter confidence table.
type HybridLanes struct {
	N                      int
	MissA, MissB, MissTour []uint64
	BucketA, BucketB       func(i int) uint64
}

// CompareHybridLanes computes the comparison from lanes, with no predictor
// or confidence table in the loop.
func CompareHybridLanes(l HybridLanes) HybridComparison {
	var res HybridComparison
	bit := func(words []uint64, i int) bool { return words[i>>6]>>(uint(i)&63)&1 != 0 }
	for i := 0; i < l.N; i++ {
		res.add(bit(l.MissA, i), bit(l.MissB, i), bit(l.MissTour, i), l.BucketA(i), l.BucketB(i))
	}
	return res
}

// CompareHybrids replays src through the confidence-selected hybrid, a
// McFarling tournament of the same components, and both solo components,
// in lockstep. newA/newB build the component predictors; the same
// constructors feed the tournament and the solo baselines so every
// structure sees identical geometry. The walk produces the lanes
// CompareHybridLanes reads, a branch at a time.
func CompareHybrids(src trace.Source, newA, newB func() predictor.Predictor, chooserBits uint) (HybridComparison, error) {
	a, b := newA(), newB()
	estA, estB := core.SmallResetting(12), core.SmallResetting(12)
	tour := predictor.NewTournament(newA(), newB(), chooserBits)

	var res HybridComparison
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		missA, missB, missTour := a.Predict(r) != r.Taken, b.Predict(r) != r.Taken, tour.Predict(r) != r.Taken
		res.add(missA, missB, missTour, estA.Bucket(r), estB.Bucket(r))
		a.Update(r)
		b.Update(r)
		tour.Update(r)
		estA.Update(r, missA)
		estB.Update(r, missB)
	}
}
