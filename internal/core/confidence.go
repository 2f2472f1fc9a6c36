package core

import (
	"branchconf/internal/trace"
)

// NativeConfidence surfaces a modern predictor's own confidence estimate —
// TAGE's provider-counter strength, the perceptron's output margin — as a
// confidence mechanism, for head-to-head comparison against the paper's
// CIR tables on the same trace (the realtrace experiment). The bucket is
// the predictor's 2-bit confidence level itself (its state lane,
// predictor.StateAnnotator), so CounterReducer thresholds and per-bucket
// analysis apply unchanged.
//
// Like CounterStrength, the mechanism holds no tables of its own — the
// signal lives entirely in the predictor — so it cannot be factored into
// geometry-keyed bucket lanes (core.Factorable): its buckets depend on
// predictor internals, not on an index scheme. It implements StateCoupled
// instead and rides the annotated path, where the engine has already
// captured the confidence level next to each mispredict bit; the CIR
// mechanisms it is compared against remain factorable and keep their
// stage-3 counter-factoring kernels.
type NativeConfidence struct{ predictorSignal }

// NewNativeConfidence returns the native-confidence mechanism.
func NewNativeConfidence() *NativeConfidence { return &NativeConfidence{} }

// BucketWithState implements StateCoupled: the predictor's confidence
// level is the bucket.
func (c *NativeConfidence) BucketWithState(_ trace.Record, state uint8) uint64 {
	return uint64(state)
}

// Name implements Mechanism.
func (c *NativeConfidence) Name() string { return "native-confidence" }
