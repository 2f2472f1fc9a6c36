package analysis

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMergeBucketsByPopcount(t *testing.T) {
	bs := make(TallyMap)
	// Patterns 0b0011 and 0b0101 both have two set bits; 0b0001 has one.
	for i := 0; i < 10; i++ {
		bs.Add(0b0011, i < 4)
		bs.Add(0b0101, i < 2)
		bs.Add(0b0001, i < 1)
	}
	ws := CompositePooled([]BucketStats{bs.Stats()}).MergeBuckets(func(b uint64) uint64 {
		return uint64(bits.OnesCount64(b))
	})
	if len(ws) != 2 {
		t.Fatalf("%d merged buckets, want 2", len(ws))
	}
	two := at(ws, Key{Bucket: 2})
	if two == nil {
		t.Fatal("popcount-2 bucket missing")
	}
	// 20 events of 30 total, 6 misses of 7 total, weight 1/30 each.
	if got := two.Rate(); got < 0.299 || got > 0.301 {
		t.Fatalf("merged rate %v, want 0.3", got)
	}
}

// Property: merging preserves total event and miss mass.
func TestMergeBucketsPreservesMass(t *testing.T) {
	check := func(events []uint8, missBits []uint8, mod uint8) bool {
		n := len(events)
		if len(missBits) < n {
			n = len(missBits)
		}
		if n == 0 {
			return true
		}
		m := uint64(mod%7) + 1
		bs := make(TallyMap)
		for i := 0; i < n; i++ {
			e := uint64(events[i]%20) + 1
			miss := uint64(missBits[i]) % (e + 1)
			for j := uint64(0); j < e; j++ {
				bs.Add(uint64(i), j < miss)
			}
		}
		ws := Single(bs.Stats())
		e0, m0 := ws.Totals()
		merged := ws.MergeBuckets(func(b uint64) uint64 { return b % m })
		e1, m1 := merged.Totals()
		return abs(e0-e1) < 1e-9 && abs(m0-m1) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: merging through the identity function is a no-op.
func TestMergeBucketsIdentity(t *testing.T) {
	bs := make(TallyMap)
	for i := uint64(0); i < 20; i++ {
		bs.Add(i, i%3 == 0)
		bs.Add(i, false)
	}
	ws := Single(bs.Stats())
	merged := ws.MergeBuckets(func(b uint64) uint64 { return b })
	if len(merged) != len(ws) {
		t.Fatalf("identity merge changed bucket count: %d vs %d", len(merged), len(ws))
	}
	for _, v := range ws {
		k := v.Key
		mv := at(merged, k)
		if mv == nil || abs(mv.Events-v.Events) > 1e-12 || abs(mv.Misses-v.Misses) > 1e-12 {
			t.Fatalf("bucket %v changed", k)
		}
	}
}

func TestCompositePooledEmpty(t *testing.T) {
	if ws := CompositePooled(nil); len(ws) != 0 {
		t.Fatal("empty composite nonempty")
	}
	// A run with zero events contributes nothing.
	ws := CompositePooled([]BucketStats{{}, mkStats([2]uint64{4, 1})})
	e, _ := ws.Totals()
	if abs(e-1) > 1e-9 {
		t.Fatalf("event mass %v, want 1", e)
	}
}

func TestBuildCurveDeterministicTieBreak(t *testing.T) {
	// Equal-rate buckets must order deterministically (by bucket id).
	bs := make(TallyMap)
	for _, b := range []uint64{5, 3, 9, 1} {
		bs.Add(b, true)
		bs.Add(b, false)
	}
	c1 := BuildCurve(Single(bs.Stats()))
	c2 := BuildCurve(Single(bs.Stats()))
	for i := range c1 {
		if c1[i].Key != c2[i].Key {
			t.Fatalf("nondeterministic ordering at %d", i)
		}
	}
	for i := 1; i < len(c1); i++ {
		if c1[i].Key.Bucket < c1[i-1].Key.Bucket {
			t.Fatalf("tie-break not by bucket id: %v before %v", c1[i-1].Key, c1[i].Key)
		}
	}
}
