package sim

import (
	"reflect"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// requireAscending fails unless bs's buckets strictly ascend — the order
// every histogram producer must emit and every consumer walks.
func requireAscending(t *testing.T, what string, bs analysis.BucketStats) {
	t.Helper()
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Bucket >= bs[i].Bucket {
			t.Fatalf("%s: bucket %d at %d follows bucket %d", what, bs[i].Bucket, i, bs[i-1].Bucket)
		}
	}
}

// TestDrainsEmitAscendingBuckets: both count widths of the fused-kernel
// drain emit every occupied bucket, and only those, in ascending order.
func TestDrainsEmitAscendingBuckets(t *testing.T) {
	const width = 16
	want := analysis.TallyMap{}
	c32 := make([]uint32, 2<<width)
	c64 := make([]uint64, 2<<width)
	for i := uint64(0); i < 5000; i++ {
		b := (i * 40503) % (1 << width) // scattered, descending runs included
		miss := i%3 == 0
		want.Add(b, miss)
		c32[2*b]++
		c64[2*b]++
		if miss {
			c32[2*b+1]++
			c64[2*b+1]++
		}
	}
	// The streaming engine's running histogram may pass 2^32.
	want.Add(1<<width-1, false)
	want[1<<width-1].Events += 1 << 33
	c32[2*(1<<width-1)]++
	c64[2*(1<<width-1)] += 1<<33 + 1
	for name, got := range map[string]analysis.BucketStats{"uint32": countsToStats(c32), "uint64": countsToStats(c64)} {
		requireAscending(t, name, got)
		w := want.Stats()
		if name == "uint32" {
			w[len(w)-1].Events -= 1 << 33
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s drain differs from the tallies it counted", name)
		}
	}
}

// TestBucketAccumOrdersBothSidesOfDense: the replay accumulator emits
// buckets below denseBuckets (counter values, CIR patterns) and above it
// (a static mechanism's branch addresses), fed in any order, as one
// ascending histogram with exactly TallyMap's counts — and returns its
// dense array to the pool clean.
func TestBucketAccumOrdersBothSidesOfDense(t *testing.T) {
	acc := newBucketAccum()
	want := analysis.TallyMap{}
	for i := uint64(0); i < 20000; i++ {
		b := (i * 7919) % 97 // below denseBuckets
		if i%4 == 0 {
			b = 0x40_0000 + (i*104729)%4001*4 // branch addresses above it
		}
		if i%9 == 0 {
			b = denseBuckets - 1 + i%3 // straddling the boundary
		}
		miss := i%5 == 0
		acc.add(b, miss)
		want.Add(b, miss)
	}
	got := acc.stats()
	requireAscending(t, "accumulator", got)
	if got[0].Bucket >= denseBuckets || got[len(got)-1].Bucket < denseBuckets {
		t.Fatalf("fixture does not straddle denseBuckets: %d..%d", got[0].Bucket, got[len(got)-1].Bucket)
	}
	if !reflect.DeepEqual(got, want.Stats()) {
		t.Fatal("accumulator histogram differs from TallyMap's")
	}
	for i := 0; i < 4; i++ { // the pool may hand the same array back
		next := newBucketAccum()
		next.add(3, true)
		want := analysis.BucketStats{{Bucket: 3, Tally: analysis.Tally{Events: 1, Misses: 1}}}
		if got := next.stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("a fresh accumulator saw stale tallies: %+v", got)
		}
	}
}

// TestSuiteHistogramsAscend: every engine path hands out ascending
// histograms — fused drains (16-bit CIR, counter table), the lane
// fallback above 16 bits, the replayed static mechanism, and the
// streaming engine's TallyMerger across live and store-loaded segments —
// and the segmented forms equal the monolithic one.
func TestSuiteHistogramsAscend(t *testing.T) {
	resetEngineCaches(t)
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.NewOneLevel(core.OneLevelConfig{CIRBits: 20}) },
		func() core.Mechanism { return core.NewStaticProfile() },
	}
	specs := workload.Suite()[:3]
	run := func(leg string, seg uint64) []SuiteResult {
		t.Helper()
		resetMemoryTiers()
		rs, err := RunSuiteAnnotated(SuiteConfig{Branches: 6000, Specs: specs, SegmentBranches: seg}, "gshare-64K", func() predictor.Predictor { return predictor.Gshare64K() }, newMechs)
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		for j, sr := range rs {
			for _, r := range sr.Runs {
				requireAscending(t, leg+" "+newMechs[j]().Name()+" on "+r.Benchmark, r.Buckets)
			}
		}
		return rs
	}
	want := run("monolithic", 0)
	if got := run("segmented", 997); !reflect.DeepEqual(got, want) {
		t.Fatal("segmented histograms differ from the monolithic ones")
	}
	openOracleStore(t, t.TempDir(), artifact.Options{})
	run("segmented cold", 997)
	before := StreamReport().Hits
	if got := run("segmented warm", 997); !reflect.DeepEqual(got, want) {
		t.Fatal("store-loaded segment histograms differ from the monolithic ones")
	}
	if StreamReport().Hits == before {
		t.Fatal("the warm segmented run merged no stored segment")
	}
}
