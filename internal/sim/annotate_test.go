package sim

import (
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

func annotateBuffer(t *testing.T, n uint64) *trace.ReplayBuffer {
	t.Helper()
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := trace.Materialize(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReplayAnnotatedMatchesRun is the two-stage equivalence check: one
// predictor walk (Annotate) followed by a predictor-free replay must
// reproduce independent interleaved Run passes exactly — including the
// predictor-coupled counter-strength mechanism, which under replay reads
// the captured state lane instead of live counters.
func TestReplayAnnotatedMatchesRun(t *testing.T) {
	buf := annotateBuffer(t, 30000)
	newMechs := []func(pred *predictor.Gshare) core.Mechanism{
		func(*predictor.Gshare) core.Mechanism { return core.PaperResetting() },
		func(*predictor.Gshare) core.Mechanism {
			return core.NewCounterTable(core.CounterConfig{Kind: core.Saturating, Scheme: core.IndexPCxorBHR})
		},
		func(*predictor.Gshare) core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func(*predictor.Gshare) core.Mechanism { return core.NewStaticProfile() },
		// Annotated form: no live predictor reference at all.
		func(*predictor.Gshare) core.Mechanism { return core.NewAnnotatedStrength() },
	}

	flat := buf.Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	if !ann.HasState() {
		t.Fatal("gshare annotation must carry a state lane")
	}
	mechs := make([]core.Mechanism, len(newMechs))
	for i, nm := range newMechs {
		mechs[i] = nm(nil)
	}
	got, err := ReplayAnnotated(flat, ann, mechs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nm := range newMechs {
		solo := predictor.Gshare64K().(*predictor.Gshare)
		m := nm(solo)
		// The annotated strength mechanism cannot run interleaved; compare
		// against the live-coupled equivalent.
		if _, sc := m.(core.StateCoupled); sc && i == len(newMechs)-1 {
			m = core.NewCounterStrength(solo)
		}
		want, err := Run(buf.Source(), solo, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("mechanism %d (%s): annotated replay diverges from Run\n got %+v\nwant %+v",
				i, mechs[i].Name(), got[i], want)
		}
	}
}

// TestAnnotateTargetReadingPredictor pins a regression: the annotate walk
// must hand predictors the complete record. BTFN (and the agree
// predictors' bias heuristic) classify branches by Target < PC, so a
// stream annotated from a PC-and-direction-only view records wrong
// mispredict bits for them.
func TestAnnotateTargetReadingPredictor(t *testing.T) {
	buf := annotateBuffer(t, 30000)
	for _, name := range []string{"btfn", "agree-4K"} {
		pred, err := predictor.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		ann := Annotate(buf.Flatten(), pred)
		soloPred, err := predictor.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(buf.Source(), soloPred, core.NewStaticProfile())
		if err != nil {
			t.Fatal(err)
		}
		if ann.Misses() != want.Misses {
			t.Errorf("%s: annotated stream records %d misses, interleaved run %d",
				name, ann.Misses(), want.Misses)
		}
	}
}

// TestAnnotateWithoutStateLane: a predictor with no annotation hook yields
// a miss-bits-only stream; replay still works for uncoupled mechanisms and
// refuses coupled ones.
func TestAnnotateWithoutStateLane(t *testing.T) {
	buf := annotateBuffer(t, 10000)
	pred, err := predictor.Build("gselect-64K")
	if err != nil {
		t.Fatal(err)
	}
	flat := buf.Flatten()
	ann := Annotate(flat, pred)
	if ann.HasState() {
		t.Fatal("gselect has no annotation hook; stream must not carry state")
	}
	got, err := ReplayAnnotated(flat, ann, []core.Mechanism{core.PaperResetting()})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := predictor.Build("gselect-64K")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(buf.Source(), solo, core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("annotated replay diverges from Run\n got %+v\nwant %+v", got[0], want)
	}
	if _, err := ReplayAnnotated(flat, ann, []core.Mechanism{core.NewAnnotatedStrength()}); err == nil {
		t.Fatal("replaying a coupled mechanism without a state lane must fail")
	}
}

// TestRunSuiteAnnotatedMatchesBatch: the two-stage suite engine, batching
// several mechanisms (one of them state-coupled) into one call, must equal
// the Run oracle, and a second run must be served from the annotated
// cache.
func TestRunSuiteAnnotatedMatchesBatch(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	cfg := SuiteConfig{Branches: 8000}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	mechs := []oracleMech{
		{engine: func() core.Mechanism { return core.PaperResetting() }},
		{engine: func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) }},
		{
			engine: func() core.Mechanism { return core.NewAnnotatedStrength() },
			live: func(p predictor.Predictor) core.Mechanism {
				return core.NewCounterStrength(p.(*predictor.Gshare))
			},
		},
	}
	newMechs := make([]func() core.Mechanism, len(mechs))
	for j, m := range mechs {
		newMechs[j] = m.engine
	}
	want := oracleSuite(t, workload.Suite(), cfg.Branches, "gshare-64K", mechs)
	got, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("annotated suite diverges from the Run oracle")
	}
	rep := AnnotatedTier.Stats()
	hits, misses, resident := rep.Hits, rep.Misses, rep.ResidentBytes
	if hits != 0 {
		t.Fatalf("first annotated run: want 0 hits, got %d", hits)
	}
	if misses == 0 || resident == 0 {
		t.Fatalf("first annotated run: want misses and resident bytes, got %d / %d", misses, resident)
	}
	again, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("cached annotated suite diverges")
	}
	rep2 := AnnotatedTier.Stats()
	hits2, misses2 := rep2.Hits, rep2.Misses
	if hits2 == 0 {
		t.Fatal("second annotated run took no cache hits")
	}
	if misses2 != misses {
		t.Fatalf("second annotated run re-annotated: misses %d -> %d", misses, misses2)
	}
}

// TestRunSuiteAnnotatedUncoupledNonAnnotatingPredictor: a predictor with
// no annotation hook still runs through the two-stage engine (miss bits
// only) as long as no mechanism needs predictor state, matching the Run
// oracle exactly.
func TestRunSuiteAnnotatedUncoupledNonAnnotatingPredictor(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	AnnotatedTier.Reset()
	cfg := SuiteConfig{Branches: 6000, Specs: workload.Suite()[:3]}
	newPred := func() predictor.Predictor {
		p, err := predictor.Build("gselect-64K")
		if err != nil {
			panic(err)
		}
		return p
	}
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
	}
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gselect-64K", uncoupled(newMechs))
	got, err := RunSuiteAnnotated(cfg, "gselect-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("annotated suite under gselect diverges from the Run oracle")
	}
}

// TestAnnotatedCacheBound: a tight bound evicts LRU entries; results stay
// correct because replays hold their own pointers.
func TestAnnotatedCacheBound(t *testing.T) {
	defer AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()
	defer SetAnnotatedCacheBound(0)
	AnnotatedTier.Reset()
	SetAnnotatedCacheBound(1) // evict everything on completion
	cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:2]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
	}
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", uncoupled(newMechs))
	got, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bounded annotated suite diverges from the Run oracle")
	}
	if resident := AnnotatedTier.Stats().ResidentBytes; resident > 1 {
		t.Fatalf("bound 1 byte: resident %d bytes after run", resident)
	}
	// A rerun must still be correct (all misses, no stale state).
	again, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("post-eviction annotated suite diverges")
	}
}

// TestRunBatchAnnotatedStrength: the interleaved batch engine feeds
// captured annotation state to coupled mechanisms, so the reference-free
// strength mechanism matches the live-coupled one exactly.
func TestRunBatchAnnotatedStrength(t *testing.T) {
	buf := annotateBuffer(t, 20000)
	pred := predictor.Gshare64K().(*predictor.Gshare)
	got, err := RunBatch(buf.Source(), pred, []core.Mechanism{core.NewAnnotatedStrength()})
	if err != nil {
		t.Fatal(err)
	}
	live := predictor.Gshare64K().(*predictor.Gshare)
	want, err := Run(buf.Source(), live, core.NewCounterStrength(live))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("annotated strength under RunBatch diverges from live coupling\n got %+v\nwant %+v", got[0], want)
	}
}

// TestRunSuiteAnnotatedRejectsUnannotatedState: a state-coupled mechanism
// on a predictor with no state lane fails the call with an error naming
// both, in either engine, before any trace is built or annotated. It used
// to panic inside an engine goroutine, where no caller could recover it.
func TestRunSuiteAnnotatedRejectsUnannotatedState(t *testing.T) {
	resetEngineCaches(t)
	newPred := func() predictor.Predictor {
		p, err := predictor.Build("gselect-64K")
		if err != nil {
			panic(err)
		}
		return p
	}
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.NewAnnotatedStrength() },
	}
	for _, seg := range []uint64{0, 777} {
		cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:2], SegmentBranches: seg}
		_, err := RunSuiteAnnotated(cfg, "gselect-64K", newPred, newMechs)
		if err == nil {
			t.Fatalf("segment %d: a coupled mechanism without a state lane must fail", seg)
		}
		for _, want := range []string{"counter-strength", "gselect-64K"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("segment %d: error %q does not name %s", seg, err, want)
			}
		}
	}
	if ann, tr := AnnotatedTier.Stats(), workload.TraceTier.Stats(); ann.Misses != 0 || tr.Misses != 0 {
		t.Errorf("rejected calls did work: %d annotations, %d traces", ann.Misses, tr.Misses)
	}
}
