package analysis

import (
	"math"
	"math/rand"
	"testing"
)

// mispredsAtScan is the linear-scan MispredsAt the binary search replaced,
// kept as the reference the search must reproduce bit for bit.
func mispredsAtScan(c Curve, pctBranches float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if pctBranches <= 0 {
		return 0
	}
	prevX, prevY := 0.0, 0.0
	for _, p := range c {
		if p.CumEventsPct >= pctBranches {
			dx := p.CumEventsPct - prevX
			if dx == 0 {
				return p.CumMissesPct
			}
			f := (pctBranches - prevX) / dx
			return prevY + f*(p.CumMissesPct-prevY)
		}
		prevX, prevY = p.CumEventsPct, p.CumMissesPct
	}
	return 100
}

// branchesForScan is the linear-scan BranchesFor reference.
func branchesForScan(c Curve, pctMisses float64) float64 {
	prevX, prevY := 0.0, 0.0
	for _, p := range c {
		if p.CumMissesPct >= pctMisses {
			dy := p.CumMissesPct - prevY
			if dy == 0 {
				return p.CumEventsPct
			}
			f := (pctMisses - prevY) / dy
			return prevX + f*(p.CumEventsPct-prevX)
		}
		prevX, prevY = p.CumEventsPct, p.CumMissesPct
	}
	return 100
}

// sameFloat is bit equality, with any two NaNs equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// lookupQueries returns the fixed edge queries plus every point's own
// coordinates, their float neighbours and the midpoints between points,
// so each tie and each interpolation segment is probed exactly.
func lookupQueries(c Curve) []float64 {
	qs := []float64{
		math.Inf(-1), -1, math.Copysign(0, -1), 0, 5e-324, 1e-9, 0.5, 5, 10, 20, 40,
		50, 99.999, 100, math.Nextafter(100, 200), 150, math.Inf(1), math.NaN(),
	}
	prevX, prevY := 0.0, 0.0
	for _, p := range c {
		for _, v := range []float64{p.CumEventsPct, p.CumMissesPct} {
			qs = append(qs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		qs = append(qs, (prevX+p.CumEventsPct)/2, (prevY+p.CumMissesPct)/2)
		prevX, prevY = p.CumEventsPct, p.CumMissesPct
	}
	return qs
}

// checkLookups compares both lookups against their scans at every query.
func checkLookups(t *testing.T, name string, c Curve) {
	t.Helper()
	for _, q := range lookupQueries(c) {
		if got, want := c.MispredsAt(q), mispredsAtScan(c, q); !sameFloat(got, want) {
			t.Fatalf("%s: MispredsAt(%v) = %v, linear scan %v", name, q, got, want)
		}
		if got, want := c.BranchesFor(q), branchesForScan(c, q); !sameFloat(got, want) {
			t.Fatalf("%s: BranchesFor(%v) = %v, linear scan %v", name, q, got, want)
		}
	}
}

// TestCurveLookupsMatchLinearScan: the binary-searched MispredsAt and
// BranchesFor return exactly what the linear scan from the worst bucket
// returned, on built curves: the empty curve, curves whose cumulative
// columns tie (buckets too light to move a running float sum, zero-miss
// tails, and a curve with no mispredictions at all, where BranchesFor
// takes its dy == 0 branch), and random pooled and distinct composites.
func TestCurveLookupsMatchLinearScan(t *testing.T) {
	checkLookups(t, "empty", BuildCurve(nil))
	if got := Curve(nil).BranchesFor(50); got != 100 {
		t.Fatalf("empty BranchesFor = %v, want 100", got)
	}

	// Two light buckets sort between two heavy ones but cannot move the
	// cumulative sums: three points share (50, 90).
	ties := BuildCurve(WeightedStats{
		{Key{Bucket: 1}, WTally{Events: 1, Misses: 0.9}},
		{Key{Bucket: 2}, WTally{Events: 1e-300, Misses: 0.8e-300}},
		{Key{Bucket: 3}, WTally{Events: 1e-300, Misses: 0.8e-300}},
		{Key{Bucket: 4}, WTally{Events: 1, Misses: 0.1}},
		{Key{Bucket: 5}, WTally{Events: 2, Misses: 0}},
		{Key{Bucket: 6}, WTally{Events: 3, Misses: 0}},
	})
	if ties[0].CumEventsPct != ties[2].CumEventsPct || ties[0].CumMissesPct != ties[2].CumMissesPct {
		t.Fatalf("tie fixture does not tie: %+v", ties[:3])
	}
	if ties[4].CumMissesPct != ties[5].CumMissesPct {
		t.Fatalf("tie fixture has no zero-miss tail: %+v", ties[4:])
	}
	checkLookups(t, "ties", ties)
	if got := ties.MispredsAt(ties[0].CumEventsPct); got != ties[0].CumMissesPct {
		t.Fatalf("MispredsAt at a tied x = %v, want the first tied point's %v", got, ties[0].CumMissesPct)
	}

	noMiss := BuildCurve(Single(BucketStats{{1, Tally{Events: 4}}, {2, Tally{Events: 6}}}))
	if noMiss[0].CumMissesPct != 0 {
		t.Fatalf("no-miss fixture has mispredictions: %+v", noMiss)
	}
	checkLookups(t, "no mispredictions", noMiss)
	if got := noMiss.BranchesFor(0); got != noMiss[0].CumEventsPct {
		t.Fatalf("BranchesFor(0) with dy == 0 = %v, want %v", got, noMiss[0].CumEventsPct)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		runs := make([]BucketStats, 1+rng.Intn(4))
		for r := range runs {
			bs := make(TallyMap)
			for n := rng.Intn(60); n > 0; n-- {
				// A narrow bucket space makes equal rates, and so equal
				// steps, common; a heavy zero bucket mimics the CIR curves.
				b := uint64(rng.Intn(40))
				events := uint64(1 + rng.Intn(5))
				if b == 0 {
					events *= 1000
				}
				misses := uint64(0)
				if rng.Intn(3) > 0 {
					misses = uint64(rng.Int63n(int64(events) + 1))
				}
				bs[b] = &Tally{Events: events, Misses: misses}
			}
			runs[r] = bs.Stats()
		}
		checkLookups(t, "pooled", BuildCurve(CompositePooled(runs)))
		checkLookups(t, "distinct", BuildCurve(CompositeDistinct(runs)))
	}
}
