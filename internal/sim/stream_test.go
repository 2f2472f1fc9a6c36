package sim

import (
	"reflect"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// streamTestMechs mixes every streaming code path: two resumable
// geometries (one duplicated, exercising the shared-lane dedup), a
// two-level geometry, a predictor-coupled mechanism (replay path, needs
// the state lane), and a non-factorable one (replay path, no lane).
func streamTestMechs() []func() core.Mechanism {
	return []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism {
			return core.NewTwoLevel(core.TwoLevelConfig{L1Bits: 6, L1CIRBits: 5, L2CIRBits: 4, HistoryBits: 7})
		},
		func() core.Mechanism { return core.NewCounterStrength() },
		func() core.Mechanism { return core.NewStaticProfile() },
	}
}

// TestStreamingMatchesMonolithic is the tentpole equivalence check: the
// segmented streaming engine must be byte-identical to the monolithic
// two-stage engine at every segment size, including size 1 (a checkpointed
// resume at every single branch) and sizes at/past the budget (one segment,
// exercising the trivial segmentation).
func TestStreamingMatchesMonolithic(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	const n = 5000
	cfg := SuiteConfig{Branches: n, Specs: workload.Suite()[:2]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	want, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, streamTestMechs())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint64{1, 997, n, n + 1} {
		scfg := cfg
		scfg.SegmentBranches = size
		got, err := RunSuiteAnnotated(scfg, "gshare-64K", newPred, streamTestMechs())
		if err != nil {
			t.Fatalf("segment size %d: %v", size, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("segment size %d: streaming suite diverges from monolithic", size)
		}
	}
}

// TestStreamingNonAnnotatingPredictor: a predictor with no state hook
// streams miss-bits-only segments for uncoupled mechanisms, byte-identical
// to the monolithic run.
func TestStreamingNonAnnotatingPredictor(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:2]}
	newPred := func() predictor.Predictor {
		p, err := predictor.Build("gselect-64K")
		if err != nil {
			panic(err)
		}
		return p
	}
	mechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
	}
	want, err := RunSuiteAnnotated(cfg, "gselect-64K", newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.SegmentBranches = 777
	got, err := RunSuiteAnnotated(scfg, "gselect-64K", newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("gselect streaming suite diverges from monolithic")
	}
}

// streamStore installs a fresh artifact store for one test.
func streamStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir(), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	artifact.SetDefault(s)
	t.Cleanup(func() { artifact.SetDefault(nil) })
	return s
}

// TestStreamingWarmStart: with an artifact store, a second streaming run
// serves every segment payload from disk; after a mid-run segment is
// dropped, the walk revives predictor and factor state from the boundary
// checkpoints and rebuilds only that segment, still byte-identically.
func TestStreamingWarmStart(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	s := streamStore(t)
	const (
		n       = 5000
		segSize = 997
		predKey = "gshare-64K"
	)
	spec := workload.Suite()[0]
	cfg := SuiteConfig{Branches: n, Specs: []workload.Spec{spec}, SegmentBranches: segSize}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	mechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.NewCounterStrength() },
	}

	ResetStreamStats()
	want, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	cold := StreamReport()
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("cold run: hits %d, misses %d", cold.Hits, cold.Misses)
	}
	if cold.ResidentBytes == 0 {
		t.Fatal("cold run recorded no in-flight bytes")
	}

	ResetStreamStats()
	warm, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm streaming run diverges from cold")
	}
	rep := StreamReport()
	if rep.Misses != 0 || rep.Hits == 0 {
		t.Fatalf("warm run rebuilt segments: hits %d, misses %d", rep.Hits, rep.Misses)
	}

	// Drop segment 2's annotated stream and one geometry's bucket stream:
	// the walk must resume both the predictor and that geometry's factor
	// state from the checkpoints at the segment's entry boundary.
	geom := core.PaperOneLevel(core.IndexPCxorBHR).GeometryKey()
	s.Drop(artifact.KindAnnotatedStream, annSegKey(spec, n, predKey, segSize, 2))
	s.Drop(artifact.KindBucketStream, bucketSegKey(spec, n, predKey, geom, segSize, 2))
	ResetStreamStats()
	streamCkptRestores.Store(0)
	healed, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(healed, want) {
		t.Fatal("checkpoint-resumed streaming run diverges")
	}
	rep = StreamReport()
	if rep.Misses == 0 || rep.Hits == 0 {
		t.Fatalf("healing run: hits %d, misses %d", rep.Hits, rep.Misses)
	}
	if restores := streamCkptRestores.Load(); restores < 2 {
		t.Fatalf("expected predictor and geometry checkpoint restores, got %d", restores)
	}
	if rep.VerifyFails != 0 {
		t.Fatalf("healing run fell back to forceLive: %d retries", rep.VerifyFails)
	}
}

// TestStreamingForceLiveRetry: when a cold mid-run segment has no usable
// boundary checkpoint (warm prefix, then a hole), the unit retries with
// every disk read skipped, rebuilds the whole trace live, republishes the
// missing payloads, and still matches byte-for-byte.
func TestStreamingForceLiveRetry(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	s := streamStore(t)
	const (
		n       = 5000
		segSize = 997
		predKey = "gshare-64K"
	)
	spec := workload.Suite()[0]
	cfg := SuiteConfig{Branches: n, Specs: []workload.Spec{spec}, SegmentBranches: segSize}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	mechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
	}
	want, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	// Remove segment 2's annotated stream and the predictor checkpoint at
	// its entry boundary: segments 0-1 serve warm, segment 2 must be
	// annotated live, and the predictor has nothing to resume from.
	s.Drop(artifact.KindAnnotatedStream, annSegKey(spec, n, predKey, segSize, 2))
	s.Drop(artifact.KindCheckpoint, predCkptKey(spec, n, predKey, segSize, 2*segSize))
	ResetStreamStats()
	got, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("forceLive streaming run diverges")
	}
	if rep := StreamReport(); rep.VerifyFails == 0 {
		t.Fatalf("expected a forceLive retry, stats %+v", rep)
	}
	// The retry republished everything: one more run is fully warm again.
	ResetStreamStats()
	again, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("post-heal streaming run diverges")
	}
	if rep := StreamReport(); rep.Misses != 0 {
		t.Fatalf("store not healed by forceLive retry: %+v", rep)
	}
}
