package sim

import (
	"errors"
	"io"
	"strings"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// failingSource yields n good records then a hard error.
type failingSource struct {
	n   int
	err error
}

func (f *failingSource) Next() (trace.Record, error) {
	if f.n == 0 {
		return trace.Record{}, f.err
	}
	f.n--
	return trace.Record{PC: 0x1000, Target: 0x1040, Taken: true}, nil
}

func TestRunPropagatesSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	res, err := Run(&failingSource{n: 5, err: boom}, predictor.NewBimodal(8), core.PaperResetting())
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
	// Partial results up to the failure are preserved.
	if res.Branches != 5 {
		t.Fatalf("partial branches %d, want 5", res.Branches)
	}
	if !strings.Contains(err.Error(), "sim:") {
		t.Fatalf("error %q lacks package context", err)
	}
}

func TestRunEstimatorPropagatesSourceError(t *testing.T) {
	boom := errors.New("bad sector")
	_, err := RunEstimator(&failingSource{n: 2, err: boom}, predictor.NewBimodal(8), core.PaperEstimator(8))
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
}

func TestRunMultiPropagatesSourceError(t *testing.T) {
	boom := errors.New("cosmic ray")
	_, err := RunMulti(&failingSource{n: 1, err: boom}, predictor.NewBimodal(8), core.PaperMultiEstimator())
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
}

func TestRunWithFlushPropagatesSourceError(t *testing.T) {
	boom := errors.New("truncated trace")
	_, err := Run(&failingSource{n: 3, err: boom}, predictor.NewBimodal(8),
		core.NewSwitched(core.PaperOneLevel(core.IndexPCxorBHR), 100, core.SwitchReset))
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap source error", err)
	}
}

func TestRunEmptySource(t *testing.T) {
	res, err := Run(trace.Trace{}.Source(), predictor.NewBimodal(8), core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 0 || res.MissRate() != 0 {
		t.Fatalf("empty run %+v", res)
	}
}

// eofOnly always returns io.EOF: Run treats it as a clean end, not error.
func TestRunCleanEOF(t *testing.T) {
	src := trace.FuncSource(func() (trace.Record, error) { return trace.Record{}, io.EOF })
	if _, err := Run(src, predictor.AlwaysTaken{}, core.NewStaticProfile()); err != nil {
		t.Fatalf("EOF treated as error: %v", err)
	}
}

// TestRunRejectsStateCoupledWithoutStateLane: Run and RunBatch fail with an
// error naming the mechanism and the predictor when a state-coupled
// mechanism meets a predictor with no state lane, before reading the
// source.
func TestRunRejectsStateCoupledWithoutStateLane(t *testing.T) {
	pred, err := predictor.Build("bimodal-4K")
	if err != nil {
		t.Fatal(err)
	}
	src := &failingSource{n: 5, err: errors.New("source read")}
	_, runErr := Run(src, pred, core.NewCounterStrength())
	_, batchErr := RunBatch(src, pred, []core.Mechanism{core.PaperResetting(), core.NewCounterStrength()})
	for name, err := range map[string]error{"Run": runErr, "RunBatch": batchErr} {
		if err == nil {
			t.Fatalf("%s accepted a state-coupled mechanism on bimodal-4K", name)
		}
		for _, want := range []string{"counter-strength", "bimodal-4K"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", name, err, want)
			}
		}
	}
	if src.n != 5 {
		t.Errorf("rejected walks read %d records", 5-src.n)
	}
}
