package sim

import (
	"reflect"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// factorablePaperMechs is every factorable mechanism family the paper's
// figures instantiate: the one-level index-scheme sweep (fig5), the
// one-level init-policy sweep (fig11), the two-level variants (fig6), and
// the §5.1 counter tables (fig8, table1) in both kinds plus the §5.3
// small-table variant.
func factorablePaperMechs() []func() core.Mechanism {
	var out []func() core.Mechanism
	for _, scheme := range []core.IndexScheme{core.IndexPC, core.IndexBHR, core.IndexPCxorBHR,
		core.IndexGCIR, core.IndexPCxorGCIR, core.IndexPCconcatBHR} {
		scheme := scheme
		out = append(out, func() core.Mechanism { return core.PaperOneLevel(scheme) })
	}
	for _, init := range []core.InitPolicy{core.InitOnes, core.InitZeros, core.InitLastBit, core.InitRandom} {
		init := init
		out = append(out, func() core.Mechanism {
			return core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, Init: init})
		})
	}
	for _, v := range []struct {
		s1 core.IndexScheme
		s2 core.SecondIndex
	}{
		{core.IndexPC, core.L2CIR},
		{core.IndexPCxorBHR, core.L2CIR},
		{core.IndexPCxorBHR, core.L2CIRxorPCxorBHR},
	} {
		v := v
		out = append(out, func() core.Mechanism {
			return core.NewTwoLevel(core.TwoLevelConfig{Scheme1: v.s1, Scheme2: v.s2})
		})
	}
	out = append(out,
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism {
			return core.NewCounterTable(core.CounterConfig{Kind: core.Saturating, Scheme: core.IndexPCxorBHR})
		},
		func() core.Mechanism { return core.SmallResetting(10) },
	)
	return out
}

// resetEngineCaches clears every process-wide memo the tally tests touch.
func resetEngineCaches(t *testing.T) {
	t.Helper()
	reset := func() {
		AnnotatedTier.Reset()
		BucketTier.Reset()
		workload.TraceTier.Reset()
	}
	reset()
	t.Cleanup(reset)
}

// TestTallyMatchesReplay is the stage-3 property test: for every factorable
// paper geometry, the suite results served from geometry-keyed bucket
// streams must equal — integer for integer — the Run oracle on the same
// seeded workload prefix. The non-factorable mechanisms ride along to check
// the partition leaves the replay path untouched.
func TestTallyMatchesReplay(t *testing.T) {
	resetEngineCaches(t)
	cfg := SuiteConfig{Branches: 8000, Specs: workload.Suite()[:4]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := append(factorablePaperMechs(),
		func() core.Mechanism { return core.NewStaticProfile() },
	)
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", newMechs)

	got, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("mechanism %d (%s): tally path diverges from the Run oracle",
				i, newMechs[i]().Name())
		}
	}

	rep := BucketTier.Stats()
	misses, resident := rep.Misses, rep.ResidentBytes
	if misses == 0 || resident == 0 {
		t.Fatalf("tally run built no bucket streams: %d misses, %d resident bytes", misses, resident)
	}
	// 16 factorable mechanisms collapse to 15 distinct geometries (the
	// IndexPCxorBHR scheme sweep entry and the InitOnes init sweep entry are
	// the same configuration), so per benchmark the cache must build one
	// stream per geometry and serve the duplicate from a hit.
	if wantMisses := uint64(len(cfg.Specs)) * 15; misses != wantMisses {
		t.Errorf("bucket cache built %d streams, want %d (one per benchmark per distinct geometry)", misses, wantMisses)
	}

	// A rerun is served entirely from the cache: hits move, misses do not.
	rep1 := BucketTier.Stats()
	hits1, misses1 := rep1.Hits, rep1.Misses
	again, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("cached tally rerun diverges from the Run oracle")
	}
	rep2 := BucketTier.Stats()
	hits2, misses2 := rep2.Hits, rep2.Misses
	if hits2 <= hits1 {
		t.Errorf("tally rerun took no bucket-cache hits (%d -> %d)", hits1, hits2)
	}
	if misses2 != misses1 {
		t.Errorf("tally rerun rebuilt streams: misses %d -> %d", misses1, misses2)
	}
}

// TestTallyMatchesReplayParallel reruns the equality property with the
// engine fanned out over 8 simulation slots — under -race this is the
// stage's concurrency check: parallel chunks claiming overlapping bucket
// streams must share builds without data races or divergence.
func TestTallyMatchesReplayParallel(t *testing.T) {
	resetEngineCaches(t)
	defer SetParallelism(0)
	cfg := SuiteConfig{Branches: 6000, Specs: workload.Suite()[:3]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := factorablePaperMechs()
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", newMechs)

	SetParallelism(8)
	got, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("parallel tally run diverges from the Run oracle")
	}
}

// TestBucketCacheBound: a starvation bound forces eviction after every
// build; results stay correct (builders hold their own pointers) and the
// eviction counter moves.
func TestBucketCacheBound(t *testing.T) {
	resetEngineCaches(t)
	defer SetTallyCacheDefaultBound(0)
	SetTallyCacheDefaultBound(1)
	cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:2]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPC) },
	}
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", newMechs)
	got, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bound-starved tally run diverges from the Run oracle")
	}
	rep := BucketTier.Stats()
	if rep.Evictions == 0 {
		t.Fatalf("1-byte bound evicted nothing: %+v", rep)
	}
	if rep.ResidentBytes > 1 {
		t.Fatalf("1-byte bound left %d bytes resident", rep.ResidentBytes)
	}
}
