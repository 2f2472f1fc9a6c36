// Package core implements the paper's contribution: hardware mechanisms
// that assign a high/low confidence level to each conditional branch
// prediction (Jacobsen, Rotenberg & Smith, "Assigning Confidence to
// Conditional Branch Predictions", MICRO-29, 1996).
//
// A confidence mechanism is split in two stages, mirroring the paper's
// Figure 3:
//
//   - A Mechanism owns the Correct/Incorrect Register (CIR) tables. For
//     every dynamic branch it returns the Bucket read from the table — the
//     raw CIR pattern, or the compressed counter value when counters are
//     embedded in the table — and is then trained with the prediction's
//     correctness.
//
//   - A reduction turns the bucket into the one-bit high/low confidence
//     signal. The idealised reduction of Sections 2-4 sorts buckets by
//     their measured misprediction rates offline (see internal/analysis);
//     the practical reductions of Section 5 (ones counting, saturating
//     counters, resetting counters) are simple threshold functions
//     available here as Reducers.
//
// Mechanisms follow the same contract as predictors: for each branch call
// Bucket first, then Update. They are deterministic and not safe for
// concurrent use. No mechanism holds a predictor. The ones whose signal is
// predictor state (CounterStrength, NativeConfidence) implement
// StateCoupled, and the simulation walk passes them the predictor's
// pre-update state. Switched wraps a one-level table with a §5.4
// context-switch policy applied every N branches.
package core

import (
	"fmt"

	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// Mechanism reads a confidence bucket for each dynamic branch and is
// trained with prediction correctness.
type Mechanism interface {
	// Bucket returns the table value the mechanism reads for this branch,
	// before any update. Equal buckets are statistically equivalent: the
	// analysis layer accumulates per-bucket misprediction statistics.
	Bucket(r trace.Record) uint64
	// Update trains the mechanism: incorrect reports whether the
	// underlying branch prediction was wrong.
	Update(r trace.Record, incorrect bool)
	// Reset restores the initial table state.
	Reset()
	// Name identifies the configuration (e.g. "1lev-BHRxorPC-cir16-64K").
	Name() string
}

// Fused is an optional Mechanism fast path for replay loops that always
// pair the two calls: BucketUpdate must behave exactly like Bucket(r)
// immediately followed by Update(r, incorrect), returning Bucket's value.
// Implementations can skip the cross-call index memo the split protocol
// needs, saving a dynamic dispatch and an index recomputation per branch.
type Fused interface {
	Mechanism
	BucketUpdate(r trace.Record, incorrect bool) uint64
}

// IndexScheme selects how a confidence table is addressed, the axis
// explored in Section 3.1 and Figure 5.
type IndexScheme int

// Index schemes. The paper reports results for PC, BHR and PCxorBHR, finds
// the global CIR of little value, and found xor better than concatenation;
// the dismissed schemes are implemented so those claims can be reproduced.
const (
	// IndexPC addresses the table with branch PC bits alone.
	IndexPC IndexScheme = iota
	// IndexBHR addresses with the global branch history register alone.
	IndexBHR
	// IndexPCxorBHR addresses with PC xor BHR (the paper's best).
	IndexPCxorBHR
	// IndexGCIR addresses with a global correct/incorrect register.
	IndexGCIR
	// IndexPCxorGCIR addresses with PC xor the global CIR.
	IndexPCxorGCIR
	// IndexPCconcatBHR concatenates half-width PC and BHR fields (the
	// concatenation alternative the paper's preliminary studies rejected).
	IndexPCconcatBHR
)

// String returns the scheme's conventional name as used in the paper's
// figure legends.
func (s IndexScheme) String() string {
	switch s {
	case IndexPC:
		return "PC"
	case IndexBHR:
		return "BHR"
	case IndexPCxorBHR:
		return "BHRxorPC"
	case IndexGCIR:
		return "GCIR"
	case IndexPCxorGCIR:
		return "GCIRxorPC"
	case IndexPCconcatBHR:
		return "PCcatBHR"
	default:
		return fmt.Sprintf("IndexScheme(%d)", int(s))
	}
}

// OneLevelSchemes returns the three index schemes evaluated in Figure 5.
func OneLevelSchemes() []IndexScheme {
	return []IndexScheme{IndexPC, IndexBHR, IndexPCxorBHR}
}

// InitPolicy selects the initial CIR table contents, the axis studied in
// Section 5.4 and Figure 11.
type InitPolicy int

// Initialisation policies. The paper finds all-ones (and anything nonzero)
// clearly better than all-zeros, and proposes "lastbit" — only the oldest
// bit set — as a cheap nonzero alternative.
const (
	// InitOnes fills every CIR with ones (the paper's default, §4).
	InitOnes InitPolicy = iota
	// InitZeros fills every CIR with zeros.
	InitZeros
	// InitLastBit sets only the oldest bit of each CIR.
	InitLastBit
	// InitRandom fills CIRs with deterministic pseudo-random bits.
	InitRandom
)

// String returns the policy name as used in Figure 11's legend.
func (p InitPolicy) String() string {
	switch p {
	case InitOnes:
		return "one"
	case InitZeros:
		return "zero"
	case InitLastBit:
		return "lastbit"
	case InitRandom:
		return "random"
	default:
		return fmt.Sprintf("InitPolicy(%d)", int(p))
	}
}

// InitPolicies returns the four policies compared in Figure 11.
func InitPolicies() []InitPolicy {
	return []InitPolicy{InitOnes, InitZeros, InitLastBit, InitRandom}
}

// initValue returns the initial contents for the table entry at index i
// under policy p, for a width-bit CIR. rng drives InitRandom and must be
// non-nil for that policy.
func (p InitPolicy) initValue(width uint, rng *xrand.RNG) uint64 {
	switch p {
	case InitOnes:
		if width == 64 {
			return ^uint64(0)
		}
		return (uint64(1) << width) - 1
	case InitZeros:
		return 0
	case InitLastBit:
		return uint64(1) << (width - 1)
	case InitRandom:
		if width == 64 {
			return rng.Uint64()
		}
		return rng.Uint64() & ((uint64(1) << width) - 1)
	default:
		panic(fmt.Sprintf("core: unknown init policy %d", int(p)))
	}
}
