package exp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// writeRealTrace records a small ChampSim trace from a suite benchmark.
func writeRealTrace(t *testing.T, n uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "smoke.champsim")
	src, err := workload.Suite()[0].FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewChampSimWriter(f)
	if _, err := w.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRealTraceNeedsAFile(t *testing.T) {
	e, err := ByID("realtrace")
	if err != nil {
		t.Fatal(err)
	}
	if !e.OptIn {
		t.Fatal("realtrace must be opt-in")
	}
	if _, err := e.Run(NewSession(Config{})); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("no trace file: err = %v, want a hint to pass -trace", err)
	}
}

// TestRealTraceEnginesAgree pins the tentpole contract: the experiment
// renders native TAGE/perceptron confidence next to the CIR tables, its
// bytes are identical across the monolithic and streaming engine forms,
// and every engine pass over the recorded trace equals sim.Run.
func TestRealTraceEnginesAgree(t *testing.T) {
	path := writeRealTrace(t, 4000)
	e, err := ByID("realtrace")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(NewSession(Config{TraceFile: path}))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gshare-64k", "tage", "perceptron", "native@20%", "resetting@20%"} {
		if !strings.Contains(strings.ToLower(ref.Text), strings.ToLower(want)) {
			t.Fatalf("output lacks %q:\n%s", want, ref.Text)
		}
	}
	for _, scalar := range []string{"tage/native@20%", "perceptron/native@20%", "miss%/tage", "gshare-64k/resetting@20%"} {
		found := false
		for k := range ref.Scalars {
			if strings.EqualFold(k, scalar) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing scalar %q in %v", scalar, ref.Scalars)
		}
	}
	variants := map[string]Config{
		"streaming": {TraceFile: path, SegmentBranches: 512},
	}
	for name, cfg := range variants {
		out, err := e.Run(NewSession(cfg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Text != ref.Text {
			t.Fatalf("%s engine diverges:\n--- annotated ---\n%s--- %s ---\n%s", name, ref.Text, name, out.Text)
		}
	}
	checkRealTraceOracle(t, path)

	// A copy of the same bytes at a different path is the same trace: the
	// identity is the content digest, not the location.
	copyPath := filepath.Join(t.TempDir(), "smoke.champsim")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(NewSession(Config{TraceFile: copyPath}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != ref.Text {
		t.Fatal("same trace bytes at a different path changed the report")
	}
}

// checkRealTraceOracle requires the suite engine's passes over the
// recorded trace to equal the straight-line sim.Run, for every predictor
// and mechanism the realtrace experiment runs, the state-coupled
// native-confidence mechanism included.
func checkRealTraceOracle(t *testing.T, path string) {
	t.Helper()
	spec, err := workload.TraceSpec("", path)
	if err != nil {
		t.Fatal(err)
	}
	cir := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperResetting() },
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
	}
	native := func() core.Mechanism { return core.NewNativeConfidence() }
	for _, leg := range []struct {
		pred     PredSpec
		newMechs []func() core.Mechanism
	}{
		{predGshare64K, cir},
		{predFromRegistry("tage"), append([]func() core.Mechanism{native}, cir...)},
		{predFromRegistry("perceptron"), append([]func() core.Mechanism{native}, cir...)},
	} {
		cfg := sim.SuiteConfig{Branches: spec.TraceCount, Specs: []workload.Spec{spec}}
		got, err := sim.RunSuiteAnnotated(cfg, leg.pred.Key, leg.pred.New, leg.newMechs)
		if err != nil {
			t.Fatal(err)
		}
		for j, nm := range leg.newMechs {
			src, err := spec.FiniteSource(spec.TraceCount)
			if err != nil {
				t.Fatal(err)
			}
			mm := nm()
			want, err := sim.Run(src, leg.pred.New(), mm)
			if err != nil {
				t.Fatal(err)
			}
			want.Benchmark = spec.Name
			if !reflect.DeepEqual(got[j].Runs[0], want) {
				t.Errorf("%s/%s: engine pass over the recorded trace diverges from sim.Run", leg.pred.Key, mm.Name())
			}
		}
	}
}

// TestRealTraceBudgetClamps: a budget above the recording's branch count
// clamps to the recording instead of failing or cold-starting caches.
func TestRealTraceBudgetClamps(t *testing.T) {
	path := writeRealTrace(t, 2000)
	e, err := ByID("realtrace")
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Run(NewSession(Config{TraceFile: path}))
	if err != nil {
		t.Fatal(err)
	}
	over, err := e.Run(NewSession(Config{TraceFile: path, Branches: 1 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	if over.Text != full.Text {
		t.Fatal("over-budget run diverges from the full-trace run")
	}
}
