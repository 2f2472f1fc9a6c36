// Package predictor implements the dynamic branch predictors underlying the
// confidence study, plus the wider predictor zoo used by baselines and the
// hybrid-selector application.
//
// The paper's primary configuration is a gshare predictor with 2^16 two-bit
// saturating counters indexed by the exclusive-OR of PC bits 17..2 and a
// 16-bit global branch history register; Section 5.3 uses a 2^12-entry
// gshare with 12 history bits. Both are available via Gshare64K and
// Gshare4K.
//
// Usage contract: for each dynamic branch, call Predict first and then
// Update with the resolved direction. Update maintains both the counter
// tables and any history registers. Predictors are deterministic and not
// safe for concurrent use.
//
// A predictor whose state a confidence mechanism can read exposes it one
// way: StateAnnotator.AnnotationState, StateBits bits per branch (gshare's
// counter value, TAGE's and the perceptron's native confidence level).
package predictor

import (
	"fmt"
	"sort"

	"branchconf/internal/trace"
)

// Predictor predicts conditional branch directions from a dynamic branch
// record. Implementations may use any field of the record (PC, target for
// BTFN-style static prediction) but must not use the Taken field in
// Predict.
type Predictor interface {
	// Predict returns the predicted direction for the branch.
	Predict(r trace.Record) bool
	// Update trains the predictor with the resolved direction.
	Update(r trace.Record)
	// Reset restores the predictor to its initial state (tables to their
	// configured initial values, histories to zero).
	Reset()
	// Name identifies the predictor configuration, e.g. "gshare-64K".
	Name() string
}

// StateAnnotator is the one way predictor state reaches a confidence
// mechanism (core.StateCoupled). Every simulation walk in internal/sim
// reads AnnotationState after Predict and before Update and hands it to
// the mechanism, or records it in an annotated stream's state lane for
// replay. It must not perturb predictor state.
type StateAnnotator interface {
	Predictor
	// AnnotationState returns the pre-update state for this branch, in
	// its low StateBits bits.
	AnnotationState(r trace.Record) uint8
}

// StateBits is the width of every predictor's state lane.
const StateBits = 2

// Gshare64K returns the paper's main predictor: 2^16 two-bit counters,
// 16 bits of global history XORed with PC bits 17..2 (§1.2).
func Gshare64K() Predictor { return NewGshare(16, 16) }

// Gshare4K returns the paper's Section 5.3 small predictor: 2^12 two-bit
// counters, PC bits 13..2 XORed with 12 history bits.
func Gshare4K() Predictor { return NewGshare(12, 12) }

// builders maps registry names to constructors, letting CLI tools select a
// predictor by flag. Populated in init functions beside each predictor.
var builders = map[string]func() Predictor{}

// Register adds a named constructor to the registry. It panics on a
// duplicate name: registrations happen in init and a collision is a
// programming error.
func Register(name string, build func() Predictor) {
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("predictor: duplicate registration %q", name))
	}
	builders[name] = build
}

// Build constructs the named predictor, or an error listing the available
// names when the name is unknown.
func Build(name string) (Predictor, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("predictor: unknown predictor %q (available: %v)", name, Names())
	}
	return b(), nil
}

// Names returns the sorted registry names.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
