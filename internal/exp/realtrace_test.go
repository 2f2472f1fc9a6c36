package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if _, err := e.RunOnce(Config{}); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("no trace file: err = %v, want a hint to pass -trace", err)
	}
}

// TestRealTraceEnginesAgree pins the tentpole contract: the experiment
// renders native TAGE/perceptron confidence next to the CIR tables, and
// its bytes are identical across the annotated, batched, streaming, and
// artifact-free engine configurations.
func TestRealTraceEnginesAgree(t *testing.T) {
	path := writeRealTrace(t, 4000)
	e, err := ByID("realtrace")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.RunOnce(Config{TraceFile: path})
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
		"batched":   {TraceFile: path, NoAnnotate: true},
		"no-tally":  {TraceFile: path, NoTally: true},
		"streaming": {TraceFile: path, SegmentBranches: 512},
	}
	for name, cfg := range variants {
		out, err := e.RunOnce(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Text != ref.Text {
			t.Fatalf("%s engine diverges:\n--- annotated ---\n%s--- %s ---\n%s", name, ref.Text, name, out.Text)
		}
	}

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
	out, err := e.RunOnce(Config{TraceFile: copyPath})
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != ref.Text {
		t.Fatal("same trace bytes at a different path changed the report")
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
	full, err := e.RunOnce(Config{TraceFile: path})
	if err != nil {
		t.Fatal(err)
	}
	over, err := e.RunOnce(Config{TraceFile: path, Branches: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if over.Text != full.Text {
		t.Fatal("over-budget run diverges from the full-trace run")
	}
}
