package core

import (
	"fmt"
	"testing"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// factorableBuilders spans every factorable paper geometry: all one-level
// index schemes, every init policy, every two-level second-index variant,
// and both counter-table kinds over the scheme/Max/init/history space the
// §5 studies sweep, plus non-default geometries exercising distinct table,
// CIR and history widths.
func factorableBuilders() map[string]func() Factorable {
	builders := map[string]func() Factorable{}
	for _, scheme := range []IndexScheme{IndexPC, IndexBHR, IndexPCxorBHR, IndexGCIR, IndexPCxorGCIR, IndexPCconcatBHR} {
		scheme := scheme
		builders["onelevel-"+scheme.String()] = func() Factorable { return PaperOneLevel(scheme) }
	}
	for _, init := range []InitPolicy{InitOnes, InitZeros, InitLastBit, InitRandom} {
		init := init
		builders["onelevel-init-"+init.String()] = func() Factorable {
			return NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 8, Init: init, InitSeed: 7})
		}
	}
	for _, s2 := range []SecondIndex{L2CIR, L2CIRxorPC, L2CIRxorBHR, L2CIRxorPCxorBHR} {
		s2 := s2
		builders["twolevel-"+s2.String()] = func() Factorable {
			return NewTwoLevel(TwoLevelConfig{Scheme1: IndexPCxorBHR, Scheme2: s2})
		}
	}
	builders["twolevel-small"] = func() Factorable {
		return NewTwoLevel(TwoLevelConfig{Scheme1: IndexPC, Scheme2: L2CIRxorPC,
			L1Bits: 6, L1CIRBits: 6, L2CIRBits: 10, HistoryBits: 5, Init: InitRandom, InitSeed: 11})
	}
	for _, kind := range []CounterKind{Saturating, Resetting} {
		kind := kind
		builders["counter-"+kind.String()] = func() Factorable { return NewCounterTable(CounterConfig{Kind: kind, Scheme: IndexPCxorBHR}) }
		for _, scheme := range []IndexScheme{IndexPC, IndexGCIR, IndexPCconcatBHR} {
			kind, scheme := kind, scheme
			builders["counter-"+kind.String()+"-"+scheme.String()] = func() Factorable {
				return NewCounterTable(CounterConfig{Kind: kind, Scheme: scheme, TableBits: 10})
			}
		}
		for _, max := range []uint8{4, 8, 32, 64} {
			kind, max := kind, max
			builders[fmt.Sprintf("counter-%s-max%d", kind, max)] = func() Factorable {
				return NewCounterTable(CounterConfig{Kind: kind, Scheme: IndexPCxorBHR, TableBits: 10, Max: max})
			}
		}
	}
	builders["counter-init-hist"] = func() Factorable {
		return NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, TableBits: 10, Max: 16, Init: 7, HistoryBits: 12})
	}
	builders["counter-smallreset"] = func() Factorable { return SmallResetting(8) }
	return builders
}

// factorStream builds a deterministic pseudo-random branch stream with its
// packed mispredict bits.
func factorStream(n int) (recs []trace.Record, miss []uint64) {
	rng := xrand.New(0xFAC702)
	recs = make([]trace.Record, n)
	miss = make([]uint64, (n+63)/64)
	for i := range recs {
		recs[i] = rec(0x1000+16*(rng.Uint64()%512), rng.Uint64()%3 != 0)
		if rng.Uint64()%5 == 0 {
			miss[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return recs, miss
}

// TestFillBucketLaneMatchesSplit is the factorability proof the stage-3
// tally engine rests on: for every factorable paper geometry, the
// monomorphic lane kernel must emit exactly the bucket sequence the split
// Bucket-then-Update protocol observes over the same stream. The kernel
// runs against the *trained* instance, pinning the other half of the
// contract — FillBucketLane replays a private copy of the initial state
// and is indifferent to (and must not perturb) the receiver's live tables.
func TestFillBucketLaneMatchesSplit(t *testing.T) {
	const n = 20000
	recs, miss := factorStream(n)
	for name, build := range factorableBuilders() {
		t.Run(name, func(t *testing.T) {
			m := build()
			want := make([]uint64, n)
			for i := range recs {
				incorrect := miss[i>>6]>>(uint(i)&63)&1 == 1
				want[i] = m.Bucket(recs[i])
				m.Update(recs[i], incorrect)
			}
			// m's tables are now fully trained; the kernel must be blind to
			// that and reproduce the from-initial-state sequence.
			lane := bitvec.NewDense(m.BucketWidth(), n)
			counts := make([]uint32, 2<<m.BucketWidth())
			m.FillBucketLane(recs, miss, lane, counts)
			if lane.Len() != n {
				t.Fatalf("lane holds %d buckets, want %d", lane.Len(), n)
			}
			wantCounts := make([]uint32, len(counts))
			for i := range want {
				if got := lane.At(i); got != want[i] {
					t.Fatalf("branch %d: lane bucket %#x, split protocol %#x", i, got, want[i])
				}
				wantCounts[2*want[i]]++
				wantCounts[2*want[i]+1] += uint32(miss[i>>6] >> (uint(i) & 63) & 1)
			}
			// The fused histogram must count exactly what the lane records.
			for b := range counts {
				if counts[b] != wantCounts[b] {
					t.Fatalf("fused histogram slot %d: got %d, want %d", b, counts[b], wantCounts[b])
				}
			}
			// A histogram-only walk (nil lane) must count the same.
			histOnly := make([]uint32, len(counts))
			m.FillBucketLane(recs, miss, nil, histOnly)
			for b := range histOnly {
				if histOnly[b] != wantCounts[b] {
					t.Fatalf("nil-lane histogram slot %d: got %d, want %d", b, histOnly[b], wantCounts[b])
				}
			}
			// A nil histogram must not change the lane.
			lane2 := bitvec.NewDense(m.BucketWidth(), n)
			m.FillBucketLane(recs, miss, lane2, nil)
			for i := range want {
				if got := lane2.At(i); got != want[i] {
					t.Fatalf("nil-counts branch %d: lane bucket %#x, want %#x", i, got, want[i])
				}
			}
			// Training must also leave the replay-facing protocol intact:
			// after Reset the split walk reproduces the same sequence.
			m.Reset()
			for i := range recs[:1000] {
				if got := m.Bucket(recs[i]); got != want[i] {
					t.Fatalf("post-Reset branch %d: bucket %#x, want %#x", i, got, want[i])
				}
				m.Update(recs[i], miss[i>>6]>>(uint(i)&63)&1 == 1)
			}
		})
	}
}

// TestGeometryKeyDistinguishesConfigs: geometry keys must separate every
// configuration whose bucket sequences can differ — equal keys are a
// license to share one bucket stream.
func TestGeometryKeyDistinguishesConfigs(t *testing.T) {
	mechs := []Factorable{
		PaperOneLevel(IndexPC),
		PaperOneLevel(IndexPCxorBHR),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 8, Init: InitOnes}),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 8, Init: InitZeros}),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 8, Init: InitRandom, InitSeed: 1}),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 8, Init: InitRandom, InitSeed: 2}),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 11, CIRBits: 8, Init: InitOnes}),
		NewOneLevel(OneLevelConfig{Scheme: IndexPCxorBHR, TableBits: 10, CIRBits: 9, Init: InitOnes}),
		NewTwoLevel(TwoLevelConfig{Scheme1: IndexPC, Scheme2: L2CIR}),
		NewTwoLevel(TwoLevelConfig{Scheme1: IndexPCxorBHR, Scheme2: L2CIR}),
		NewTwoLevel(TwoLevelConfig{Scheme1: IndexPCxorBHR, Scheme2: L2CIRxorPCxorBHR}),
		PaperResetting(),
		NewCounterTable(CounterConfig{Kind: Saturating, Scheme: IndexPCxorBHR}),
		NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC}),
		NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, TableBits: 10}),
		NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, Max: 8}),
		NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, Init: 3}),
		SmallResetting(16),
	}
	seen := map[string]int{}
	for i, m := range mechs {
		key := m.GeometryKey()
		if j, dup := seen[key]; dup {
			t.Errorf("configs %d and %d share geometry key %q", j, i, key)
		}
		seen[key] = i
	}
	// Identical configurations must converge on one key: that is what lets
	// the cache serve a second variant from the first variant's stream.
	if a, b := PaperOneLevel(IndexPCxorBHR).GeometryKey(), PaperOneLevel(IndexPCxorBHR).GeometryKey(); a != b {
		t.Errorf("identical configs produced distinct keys %q and %q", a, b)
	}
}
