package sim

import (
	"reflect"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

func batchTrace(t *testing.T, n uint64) trace.Trace {
	t.Helper()
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunBatchMatchesRun is the core single-pass equivalence check: one
// RunBatch over N mechanisms must reproduce N independent Run passes
// exactly, including the predictor-coupled counter-strength mechanism
// (which reads the live predictor's counters in Bucket, so it is sensitive
// to the Bucket-before-Update ordering).
func TestRunBatchMatchesRun(t *testing.T) {
	tr := batchTrace(t, 30000)
	// Each constructor receives the predictor instance driving its pass.
	newMechs := []func(pred *predictor.Gshare) core.Mechanism{
		func(*predictor.Gshare) core.Mechanism { return core.PaperResetting() },
		func(*predictor.Gshare) core.Mechanism {
			return core.NewCounterTable(core.CounterConfig{Kind: core.Saturating, Scheme: core.IndexPCxorBHR})
		},
		func(*predictor.Gshare) core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func(pred *predictor.Gshare) core.Mechanism { return core.NewCounterStrength(pred) },
	}

	pred := predictor.Gshare64K().(*predictor.Gshare)
	mechs := make([]core.Mechanism, len(newMechs))
	for i, nm := range newMechs {
		mechs[i] = nm(pred)
	}
	got, err := RunBatch(tr.Source(), pred, mechs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nm := range newMechs {
		solo := predictor.Gshare64K().(*predictor.Gshare)
		want, err := Run(tr.Source(), solo, nm(solo))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("mechanism %d (%s): batched result diverges from Run\n got %+v\nwant %+v",
				i, mechs[i].Name(), got[i], want)
		}
	}
}

// uncoupled wraps plain mechanism constructors for the Run oracle: none of
// them reads predictor state, so the oracle runs the engine's own form.
func uncoupled(newMechs []func() core.Mechanism) []oracleMech {
	ms := make([]oracleMech, len(newMechs))
	for j, nm := range newMechs {
		ms[j].engine = nm
	}
	return ms
}

// TestSuiteMechanismBatchMatchesOracle: several mechanisms sharing one
// suite call each get exactly the result a solo Run gives them.
func TestSuiteMechanismBatchMatchesOracle(t *testing.T) {
	resetEngineCaches(t)
	cfg := SuiteConfig{Branches: 8000}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
	}
	batched, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSuite(t, workload.Suite(), cfg.Branches, "gshare-64K", uncoupled(newMechs))
	for i := range newMechs {
		if !reflect.DeepEqual(batched[i], want[i]) {
			t.Errorf("mechanism %d: suite batch diverges from the Run oracle", i)
		}
	}
}

func TestDeriveEstimatorMatchesRunEstimator(t *testing.T) {
	tr := batchTrace(t, 30000)
	for _, threshold := range []uint64{1, 2, 4, 8} {
		res, err := Run(tr.Source(), predictor.Gshare64K(), core.PaperResetting())
		if err != nil {
			t.Fatal(err)
		}
		derived := DeriveEstimator(res, core.CounterReducer{Threshold: threshold})
		est := core.NewEstimator(core.PaperResetting(), core.CounterReducer{Threshold: threshold})
		want, err := RunEstimator(tr.Source(), predictor.Gshare64K(), est)
		if err != nil {
			t.Fatal(err)
		}
		if derived != want {
			t.Errorf("threshold %d: derived %+v, online %+v", threshold, derived, want)
		}
	}
}

func TestDeriveMultiMatchesRunMulti(t *testing.T) {
	tr := batchTrace(t, 30000)
	thresholds := []uint64{1, 4, 12}
	res, err := Run(tr.Source(), predictor.Gshare64K(), core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	derived := DeriveMulti(res, thresholds)
	multi := core.NewMultiEstimator(core.PaperResetting(), thresholds)
	want, err := RunMulti(tr.Source(), predictor.Gshare64K(), multi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(derived, want) {
		t.Errorf("derived %+v, online %+v", derived, want)
	}
}

func TestSetParallelism(t *testing.T) {
	resetEngineCaches(t)
	SetParallelism(1)
	defer SetParallelism(0)
	cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:4]}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{func() core.Mechanism { return core.PaperResetting() }}
	want := oracleSuite(t, cfg.Specs, cfg.Branches, "gshare-64K", uncoupled(newMechs))
	a, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the memory tiers so the second run walks again, wider.
	resetMemoryTiers()
	SetParallelism(8)
	b, err := RunSuiteAnnotated(cfg, "gshare-64K", newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatal("parallelism changed suite results")
	}
}
