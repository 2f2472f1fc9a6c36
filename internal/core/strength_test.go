package core

import (
	"testing"

	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

func TestCounterStrengthBuckets(t *testing.T) {
	g := predictor.NewGshare(8, 0) // no history: PC-indexed, easy to steer
	m := NewCounterStrength()
	r := trace.Record{PC: 0x1000, Target: 0x1040, Taken: true}
	bucket := func() uint64 { return m.BucketWithState(r, g.AnnotationState(r)) }
	// Fresh counters are weakly taken (state 2): weak → bucket 0.
	if bucket() != 0 {
		t.Fatalf("fresh bucket %d, want 0 (weak)", bucket())
	}
	// One taken outcome: state 3, strong.
	g.Update(r)
	if bucket() != 1 {
		t.Fatalf("saturated bucket %d, want 1 (strong)", bucket())
	}
	// Two not-taken outcomes: state 1, weak again.
	nt := r
	nt.Taken = false
	g.Update(nt)
	g.Update(nt)
	if bucket() != 0 {
		t.Fatalf("descending bucket %d, want 0", bucket())
	}
	// Third not-taken: state 0, strong not-taken.
	g.Update(nt)
	if bucket() != 1 {
		t.Fatalf("floor bucket %d, want 1", bucket())
	}
	m.Update(r, true) // no-op
	m.Reset()         // no-op
	if m.Name() != "counter-strength" {
		t.Fatalf("name %q", m.Name())
	}
}
