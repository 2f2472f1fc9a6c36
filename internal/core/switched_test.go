package core

import (
	"testing"

	"branchconf/internal/trace"
)

// TestSwitchedAppliesPolicyEveryInterval: the wrapper equals a one-level
// table to which the policy is applied by hand before each branch that
// follows a whole interval, and it restarts its count on Reset.
func TestSwitchedAppliesPolicyEveryInterval(t *testing.T) {
	const every = 7
	mk := func() *OneLevel {
		return NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 2, CIRBits: 4})
	}
	rec := func(i int) (trace.Record, bool) {
		return trace.Record{PC: uint64(0x1000 + 4*(i%5)), Taken: i%3 != 0}, i%11 == 0
	}
	for _, policy := range []SwitchPolicy{SwitchReset, SwitchMarkOldest} {
		sw := NewSwitched(mk(), every, policy)
		ref, plain := mk(), mk()
		diverged := false
		check := func(i, n int) {
			r, incorrect := rec(i)
			if n > 0 && n%every == 0 {
				if policy == SwitchReset {
					ref.Reset()
				} else {
					ref.MarkOldest()
				}
			}
			want := ref.Bucket(r)
			ref.Update(r, incorrect)
			got := sw.Bucket(r)
			sw.Update(r, incorrect)
			if got != want {
				t.Fatalf("%s branch %d: bucket %d, want %d", policy, i, got, want)
			}
			if plain.BucketUpdate(r, incorrect) != want {
				diverged = true
			}
		}
		for i := 0; i < 100; i++ {
			check(i, i)
		}
		if !diverged {
			t.Fatalf("%s: no switch changed a bucket; the test cannot see the interval", policy)
		}
		sw.Reset()
		ref.Reset()
		plain.Reset()
		for i := 0; i < 30; i++ {
			check(100+i, i)
		}
	}
	if got, want := NewSwitched(PaperOneLevel(IndexPCxorBHR), 64000, SwitchMarkOldest).Name(),
		"1lev-BHRxorPC-cir16-2^16-one+switch-markoldest@64000"; got != want {
		t.Fatalf("name %q, want %q", got, want)
	}
}
