package core

import (
	"fmt"

	"branchconf/internal/trace"
)

// SwitchPolicy is what a context switch does to a one-level CIR table, the
// treatments §5.4 compares. The predictor is left alone: the study isolates
// the confidence table's initialisation.
type SwitchPolicy string

const (
	// SwitchReset flushes the table to its initial contents and clears
	// the histories (OneLevel.Reset).
	SwitchReset SwitchPolicy = "reset"
	// SwitchMarkOldest keeps the CIRs but sets each one's oldest bit
	// (OneLevel.MarkOldest), the cheap treatment §5.4 conjectures.
	SwitchMarkOldest SwitchPolicy = "markoldest"
)

// Switched models periodic context switches: it applies a SwitchPolicy to
// a one-level table before each branch that follows a whole interval of
// every branches, and is the table otherwise. The count since the last
// switch is state no bucket lane can encode, so Switched is not
// Factorable: the engines replay it branch by branch, carrying the count
// across segments.
type Switched struct {
	m      *OneLevel
	every  uint64
	policy SwitchPolicy
	since  uint64
}

// NewSwitched wraps m with a switch every every branches. It panics on a
// zero interval or an unknown policy.
func NewSwitched(m *OneLevel, every uint64, policy SwitchPolicy) *Switched {
	if every == 0 || (policy != SwitchReset && policy != SwitchMarkOldest) {
		panic(fmt.Sprintf("core: bad context switch: every %d, policy %q", every, policy))
	}
	return &Switched{m: m, every: every, policy: policy}
}

// Bucket implements Mechanism, switching first when a switch is due.
func (s *Switched) Bucket(r trace.Record) uint64 {
	if s.since == s.every {
		if s.policy == SwitchReset {
			s.m.Reset()
		} else {
			s.m.MarkOldest()
		}
		s.since = 0
	}
	return s.m.Bucket(r)
}

// Update implements Mechanism.
func (s *Switched) Update(r trace.Record, incorrect bool) {
	s.m.Update(r, incorrect)
	s.since++
}

// Reset restores the table and restarts the switch count.
func (s *Switched) Reset() {
	s.m.Reset()
	s.since = 0
}

// Name is the table's name, the policy and the interval.
func (s *Switched) Name() string {
	return fmt.Sprintf("%s+switch-%s@%d", s.m.Name(), s.policy, s.every)
}
