package core

import (
	"branchconf/internal/trace"
)

// StateCoupled is implemented by mechanisms whose confidence signal is
// predictor state rather than private tables. Such a mechanism holds no
// predictor: every simulation walk reads the predictor's pre-update state
// (predictor.StateAnnotator.AnnotationState) after the prediction and
// before the update, and hands it to BucketWithState. The same value is
// recorded in the annotated stream's state lane, so predictor-coupled
// mechanisms batch and replay like any independent observer. A walk whose
// predictor exposes no state rejects the mechanism.
type StateCoupled interface {
	Mechanism
	// BucketWithState returns the bucket for this branch given the
	// pre-update predictor state.
	BucketWithState(r trace.Record, state uint8) uint64
}

// CounterStrength is the zero-cost confidence heuristic from the paper's
// related work (§1.1, citing Smith '81): read confidence straight from the
// saturation of the predictor's own 2-bit counter — strong states
// (strongly taken / strongly not-taken) are "confident", weak states are
// not. It needs no table of its own, making it the natural cost floor any
// dedicated confidence mechanism must beat.
//
// The bucket is the counter's distance from its nearest rail: 0 for weak
// states (counter 1 or 2), 1 for strong states (0 or 3), so per-bucket
// analysis and the CounterReducer threshold (>= 1) work unchanged. The
// counter value is gshare's state lane (predictor.Gshare.AnnotationState),
// delivered through BucketWithState.
type CounterStrength struct{ predictorSignal }

// NewCounterStrength returns the counter-strength mechanism.
func NewCounterStrength() *CounterStrength { return &CounterStrength{} }

// BucketWithState implements StateCoupled: 1 when the 2-bit counter the
// prediction comes from is in a strong state, 0 when weak.
func (c *CounterStrength) BucketWithState(_ trace.Record, state uint8) uint64 {
	switch state {
	case 0, 3:
		return 1
	default:
		return 0
	}
}

// Name implements Mechanism.
func (c *CounterStrength) Name() string { return "counter-strength" }

// predictorSignal is the Mechanism half of a StateCoupled mechanism whose
// signal lives entirely in the predictor: there are no tables to train or
// reset, and no bucket without the state a walk passes to BucketWithState.
type predictorSignal struct{}

// Bucket panics: only a simulation walk can supply the predictor state.
func (predictorSignal) Bucket(trace.Record) uint64 {
	panic("core: a state-coupled mechanism runs only under a walk that feeds BucketWithState")
}

// Update is a no-op: the signal lives entirely in the predictor.
func (predictorSignal) Update(trace.Record, bool) {}

// Reset is a no-op for the same reason (reset the predictor instead).
func (predictorSignal) Reset() {}
