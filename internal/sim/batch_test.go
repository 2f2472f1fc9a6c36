package sim

import (
	"errors"
	"reflect"
	"strings"
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

func TestRunSuiteBatchMatchesRunSuite(t *testing.T) {
	cfg := SuiteConfig{Branches: 8000}
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
	}
	batched, err := RunSuiteBatch(cfg, newPred, newMechs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nm := range newMechs {
		want, err := RunSuite(cfg, newPred, nm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], want) {
			t.Errorf("mechanism %d: suite batch diverges from RunSuite", i)
		}
	}
}

func TestRunSuiteBatchCachedSource(t *testing.T) {
	// A Source hook feeding materialized replays must reproduce the
	// streaming walk exactly.
	cfg := SuiteConfig{Branches: 8000}
	cached := cfg
	cached.Source = func(spec workload.Spec, branches uint64) (trace.Source, error) {
		buf, err := workload.Materialize(spec, branches)
		if err != nil {
			return nil, err
		}
		return buf.Source(), nil
	}
	defer workload.TraceTier.Reset()
	newPred := func() predictor.Predictor { return predictor.Gshare64K() }
	newMech := func() core.Mechanism { return core.PaperResetting() }
	want, err := RunSuite(cfg, newPred, newMech)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSuite(cached, newPred, newMech)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached-source suite diverges from streaming suite")
	}
}

// TestRunSuiteErrorsJoined checks that a multi-benchmark failure reports
// every failing benchmark, not just the first.
func TestRunSuiteErrorsJoined(t *testing.T) {
	boom := errors.New("boom")
	cfg := SuiteConfig{
		Branches: 100,
		Specs:    workload.Suite()[:3],
		Source: func(spec workload.Spec, branches uint64) (trace.Source, error) {
			if spec.Name == "groff" || spec.Name == "jpeg_play" {
				return nil, boom
			}
			return spec.FiniteSource(branches)
		},
	}
	_, err := RunSuite(cfg,
		func() predictor.Predictor { return predictor.Gshare64K() },
		func() core.Mechanism { return core.PaperResetting() })
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range []string{"groff", "jpeg_play"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error missing benchmark %s: %v", name, err)
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
	SetParallelism(1)
	defer SetParallelism(0)
	cfg := SuiteConfig{Branches: 4000, Specs: workload.Suite()[:4]}
	a, err := RunSuite(cfg,
		func() predictor.Predictor { return predictor.Gshare64K() },
		func() core.Mechanism { return core.PaperResetting() })
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(8)
	b, err := RunSuite(cfg,
		func() predictor.Predictor { return predictor.Gshare64K() },
		func() core.Mechanism { return core.PaperResetting() })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallelism changed suite results")
	}
}
