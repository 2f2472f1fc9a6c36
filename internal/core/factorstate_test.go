package core

import (
	"strings"
	"testing"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

// resumableBuilders is factorableBuilders plus the wide-register geometries
// that exercise the uint64 kernel paths, asserted up front to Resumable —
// every factorable mechanism in the package must support pause-and-resume.
func resumableBuilders(t *testing.T) map[string]func() Resumable {
	t.Helper()
	out := map[string]func() Resumable{}
	for name, build := range factorableBuilders() {
		build := build
		if _, ok := build().(Resumable); !ok {
			t.Fatalf("%s: factorable mechanism does not implement Resumable", name)
		}
		out[name] = func() Resumable { return build().(Resumable) }
	}
	out["onelevel-wide"] = func() Resumable {
		return NewOneLevel(OneLevelConfig{Scheme: IndexPCxorGCIR, TableBits: 8, CIRBits: 20, Init: InitRandom, InitSeed: 3})
	}
	out["twolevel-wide"] = func() Resumable {
		return NewTwoLevel(TwoLevelConfig{Scheme1: IndexPCxorBHR, Scheme2: L2CIRxorPC,
			L1Bits: 7, L1CIRBits: 6, L2CIRBits: 18, HistoryBits: 9, Init: InitRandom, InitSeed: 5})
	}
	return out
}

// sliceMiss repacks the mispredict bits for recs[start:start+n] so a
// segment's bit 0 lines up with its first record, exactly as the streaming
// engine's per-segment annotation does.
func sliceMiss(miss []uint64, start, n int) []uint64 {
	out := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		j := start + i
		if miss[j>>6]>>(uint(j)&63)&1 == 1 {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return out
}

// laneCounts runs one whole-stream FillBucketLane and returns its lane and
// fused histogram (histogram only for widths where the tally engine would
// fuse one).
func laneCounts(m Resumable, recs []trace.Record, miss []uint64) (*bitvec.Dense, []uint32) {
	lane := bitvec.NewDense(m.BucketWidth(), len(recs))
	var counts []uint32
	if m.BucketWidth() <= 16 {
		counts = make([]uint32, 2<<m.BucketWidth())
	}
	m.FillBucketLane(recs, miss, lane, counts)
	return lane, counts
}

// TestFactorStateResumeMatchesWhole is the resumability proof the streaming
// engine rests on: cutting the stream at any boundary and feeding the parts
// through one FactorState must emit exactly the whole-stream lane and
// tallies — including cuts at 1, mid-word offsets, and n-1. Each segment
// fills its own lane, exactly as the streaming engine builds per-segment
// bucket streams, while the fused histogram accumulates across segments.
func TestFactorStateResumeMatchesWhole(t *testing.T) {
	const n = 8000
	recs, miss := factorStream(n)
	for name, build := range resumableBuilders(t) {
		t.Run(name, func(t *testing.T) {
			m := build()
			wantLane, wantCounts := laneCounts(m, recs, miss)
			for _, cuts := range [][]int{{1}, {977}, {n / 2}, {n - 1}, {63, 64, 65, 997, n / 2}} {
				st := m.NewFactorState()
				var counts []uint32
				if wantCounts != nil {
					counts = make([]uint32, len(wantCounts))
				}
				prev := 0
				for _, cut := range append(append([]int{}, cuts...), n) {
					lane := bitvec.NewDense(m.BucketWidth(), cut-prev)
					m.FillBucketLaneResume(st, recs[prev:cut], sliceMiss(miss, prev, cut-prev), lane, counts)
					if lane.Len() != cut-prev {
						t.Fatalf("segment [%d,%d): lane holds %d buckets", prev, cut, lane.Len())
					}
					for j := 0; j < lane.Len(); j++ {
						if got, want := lane.At(j), wantLane.At(prev+j); got != want {
							t.Fatalf("segment [%d,%d): branch %d bucket %#x, want %#x", prev, cut, prev+j, got, want)
						}
					}
					prev = cut
				}
				for b := range wantCounts {
					if counts[b] != wantCounts[b] {
						t.Fatalf("cuts %v: histogram slot %d = %d, want %d", cuts, b, counts[b], wantCounts[b])
					}
				}
				if wantCounts == nil {
					continue
				}
				// The streaming engine's segments walk histogram-only (nil
				// lane) and must count the same across the cuts.
				st = m.NewFactorState()
				histOnly := make([]uint32, len(wantCounts))
				prev = 0
				for _, cut := range append(append([]int{}, cuts...), n) {
					m.FillBucketLaneResume(st, recs[prev:cut], sliceMiss(miss, prev, cut-prev), nil, histOnly)
					prev = cut
				}
				for b := range wantCounts {
					if histOnly[b] != wantCounts[b] {
						t.Fatalf("cuts %v: nil-lane histogram slot %d = %d, want %d", cuts, b, histOnly[b], wantCounts[b])
					}
				}
			}
		})
	}
}

// TestFactorStateRoundTrip: serializing the state at a boundary and
// continuing from the restored copy must finish the walk identically, and
// the restored state must re-serialize to the same canonical bytes.
func TestFactorStateRoundTrip(t *testing.T) {
	const n = 6000
	recs, miss := factorStream(n)
	for name, build := range resumableBuilders(t) {
		t.Run(name, func(t *testing.T) {
			m := build()
			wantLane, wantCounts := laneCounts(m, recs, miss)
			for _, cut := range []int{0, 1, 2500, n} {
				st := m.NewFactorState()
				head := bitvec.NewDense(m.BucketWidth(), cut)
				var counts []uint32
				if wantCounts != nil {
					counts = make([]uint32, len(wantCounts))
				}
				m.FillBucketLaneResume(st, recs[:cut], sliceMiss(miss, 0, cut), head, counts)
				blob := st.MarshalState()
				restored, err := m.RestoreFactorState(blob)
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				if got := restored.MarshalState(); string(got) != string(blob) {
					t.Fatalf("cut %d: restored state re-serializes differently (%d vs %d bytes)", cut, len(got), len(blob))
				}
				tail := bitvec.NewDense(m.BucketWidth(), n-cut)
				m.FillBucketLaneResume(restored, recs[cut:], sliceMiss(miss, cut, n-cut), tail, counts)
				for i := 0; i < n; i++ {
					got := uint64(0)
					if i < cut {
						got = head.At(i)
					} else {
						got = tail.At(i - cut)
					}
					if want := wantLane.At(i); got != want {
						t.Fatalf("cut %d: branch %d bucket %#x, want %#x", cut, i, got, want)
					}
				}
				for b := range wantCounts {
					if counts[b] != wantCounts[b] {
						t.Fatalf("cut %d: histogram slot %d = %d, want %d", cut, b, counts[b], wantCounts[b])
					}
				}
			}
		})
	}
}

// TestFactorStateRejects: every structural corruption of a serialized state
// must fail restore — truncations, trailing bytes, foreign tags, oversized
// table entries, and histories outside their windows.
func TestFactorStateRejects(t *testing.T) {
	recs, miss := factorStream(3000)
	for name, build := range resumableBuilders(t) {
		t.Run(name, func(t *testing.T) {
			m := build()
			st := m.NewFactorState()
			lane := bitvec.NewDense(m.BucketWidth(), len(recs))
			m.FillBucketLaneResume(st, recs, miss, lane, nil)
			blob := st.MarshalState()

			reject := func(what string, data []byte) {
				t.Helper()
				if _, err := m.RestoreFactorState(data); err == nil {
					t.Errorf("%s: corrupt state accepted", what)
				}
			}
			reject("empty", nil)
			for _, cut := range []int{1, 5, 9, len(blob) / 2, len(blob) - 17, len(blob) - 1} {
				if cut < len(blob) {
					reject("truncated", blob[:cut])
				}
			}
			reject("trailing byte", append(append([]byte{}, blob...), 0))
			badTag := append([]byte{}, blob...)
			badTag[0] ^= 0xFF
			reject("foreign tag", badTag)
			badElem := append([]byte{}, blob...)
			badElem[9] ^= 0xFF // entry-width byte of the first table header
			reject("entry width", badElem)
			badLen := append([]byte{}, blob...)
			badLen[1] ^= 0xFF // low byte of the first table length
			reject("table length", badLen)
			// Histories live in the trailing 16 bytes; a set top byte puts
			// them far outside any paper-scale window.
			badBHR := append([]byte{}, blob...)
			badBHR[len(badBHR)-9] = 0xFF
			reject("BHR window", badBHR)
			badGCIR := append([]byte{}, blob...)
			badGCIR[len(badGCIR)-1] = 0xFF
			reject("GCIR window", badGCIR)
		})
	}
}

// TestFactorStateRejectsOversizedEntries pins the entry-range checks with
// hand-placed corruption per state layout: a table entry above its width
// mask (or counter ceiling) must fail restore even though lengths parse.
func TestFactorStateRejectsOversizedEntries(t *testing.T) {
	cases := map[string]struct {
		m   Resumable
		fix func(blob []byte) // sets one entry out of range
	}{
		"onelevel-uint16": {
			m: NewOneLevel(OneLevelConfig{Scheme: IndexPC, TableBits: 4, CIRBits: 8}),
			// first table entry's high byte: value ≥ 0x100 > 8-bit mask
			fix: func(b []byte) { b[1+9+1] = 0xFF },
		},
		"onelevel-uint64": {
			m:   NewOneLevel(OneLevelConfig{Scheme: IndexPC, TableBits: 4, CIRBits: 20}),
			fix: func(b []byte) { b[1+9+7] = 0xFF },
		},
		"twolevel-second": {
			m: NewTwoLevel(TwoLevelConfig{Scheme1: IndexPC, Scheme2: L2CIR,
				L1Bits: 4, L1CIRBits: 4, L2CIRBits: 6, HistoryBits: 4}),
			// second table starts after tag + header + 16 uint16 entries
			fix: func(b []byte) { b[1+9+32+9+1] = 0xFF },
		},
		"counter-ceiling": {
			m:   NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPC, TableBits: 4, Max: 16}),
			fix: func(b []byte) { b[1+9] = 17 },
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			blob := tc.m.NewFactorState().MarshalState()
			if _, err := tc.m.RestoreFactorState(blob); err != nil {
				t.Fatalf("pristine state rejected: %v", err)
			}
			tc.fix(blob)
			_, err := tc.m.RestoreFactorState(blob)
			if err == nil {
				t.Fatal("oversized entry accepted")
			}
			if !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("unexpected rejection: %v", err)
			}
		})
	}
}

// TestFactorStateCrossMechanism: a state restores only into its own kind,
// and handing a foreign state to FillBucketLaneResume is a programming
// error that panics.
func TestFactorStateCrossMechanism(t *testing.T) {
	one := PaperOneLevel(IndexPCxorBHR)
	ctr := PaperResetting()
	if _, err := one.RestoreFactorState(ctr.NewFactorState().MarshalState()); err == nil {
		t.Fatal("one-level restored a counter state")
	}
	if _, err := ctr.RestoreFactorState(one.NewFactorState().MarshalState()); err == nil {
		t.Fatal("counter restored a one-level state")
	}
	// Geometry mismatch within a kind: different table size.
	small := NewCounterTable(CounterConfig{Kind: Resetting, Scheme: IndexPCxorBHR, TableBits: 8})
	if _, err := ctr.RestoreFactorState(small.NewFactorState().MarshalState()); err == nil {
		t.Fatal("counter restored a state with the wrong table size")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign state did not panic FillBucketLaneResume")
		}
	}()
	recs, miss := factorStream(64)
	one.FillBucketLaneResume(ctr.NewFactorState(), recs, miss, bitvec.NewDense(one.BucketWidth(), 64), nil)
}
