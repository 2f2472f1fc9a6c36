package sim

import (
	"fmt"
	"io"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

func TestRunMultiPartitions(t *testing.T) {
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(100000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMulti(src, predictor.Gshare64K(), core.PaperMultiEstimator())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches() != 100000 {
		t.Fatalf("branches %d", res.Branches())
	}
	if len(res.Levels) != 4 {
		t.Fatalf("%d levels", len(res.Levels))
	}
	// Misprediction rate must decrease with confidence level.
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Rate() >= res.Levels[i-1].Rate() {
			t.Fatalf("level %d rate %.4f not below level %d rate %.4f",
				i, res.Levels[i].Rate(), i-1, res.Levels[i-1].Rate())
		}
	}
	// The top level holds the bulk of branches (zero-bucket analogue).
	top := res.Levels[len(res.Levels)-1]
	if float64(top.Branches)/float64(res.Branches()) < 0.4 {
		t.Fatalf("top level holds only %d/%d branches", top.Branches, res.Branches())
	}
}

func TestRunWithFlushIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	core.NewSwitched(core.PaperOneLevel(core.IndexPCxorBHR), 0, core.SwitchReset)
}

// TestSwitchedBeforeFirstSwitchMatchesPlainRun: a switch interval the
// trace never completes leaves the wrapped mechanism undisturbed.
func TestSwitchedBeforeFirstSwitchMatchesPlainRun(t *testing.T) {
	spec, _ := workload.ByName("groff")
	mk := func() *core.OneLevel { return core.PaperOneLevel(core.IndexPCxorBHR) }
	src1, _ := spec.FiniteSource(50000)
	plain, err := Run(src1, predictor.Gshare64K(), mk())
	if err != nil {
		t.Fatal(err)
	}
	src2, _ := spec.FiniteSource(50000)
	flushed, err := Run(src2, predictor.Gshare64K(), core.NewSwitched(mk(), 50000, core.SwitchReset))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Misses != flushed.Misses || len(plain.Buckets) != len(flushed.Buckets) {
		t.Fatalf("no-op flush diverged: %d vs %d misses", plain.Misses, flushed.Misses)
	}
}

func TestRunWithFlushZerosHurts(t *testing.T) {
	// Flushing the CT to zeros at every switch must degrade confidence
	// quality versus keeping it (the §5.4/Fig. 11 effect at switch time).
	spec, _ := workload.ByName("groff")
	curve := func(flush bool, init core.InitPolicy) float64 {
		src, _ := spec.FiniteSource(150000)
		var mech core.Mechanism = core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, Init: init})
		if flush {
			mech = core.NewSwitched(mech.(*core.OneLevel), 10000, core.SwitchReset)
		}
		res, err := Run(src, predictor.Gshare64K(), mech)
		if err != nil {
			t.Fatal(err)
		}
		// Inline mini-analysis: fraction of misses in buckets covering the
		// worst 20% of events.
		return coverageAt20(t, res)
	}
	keep := curve(false, core.InitOnes)
	zeros := curve(true, core.InitZeros)
	if zeros >= keep {
		t.Fatalf("flush-to-zeros (%.1f) not worse than keep (%.1f)", zeros, keep)
	}
}

func coverageAt20(t *testing.T, res Result) float64 {
	t.Helper()
	type kv struct {
		rate   float64
		events uint64
		misses uint64
	}
	var items []kv
	var totalE, totalM uint64
	for _, tally := range res.Buckets {
		items = append(items, kv{tally.Rate(), tally.Events, tally.Misses})
		totalE += tally.Events
		totalM += tally.Misses
	}
	// Selection sort by rate desc is fine at these sizes.
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].rate > items[i].rate {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	var cumE, cumM uint64
	for _, it := range items {
		if float64(cumE+it.events) > 0.2*float64(totalE) {
			break
		}
		cumE += it.events
		cumM += it.misses
	}
	return 100 * float64(cumM) / float64(totalM)
}

// RunMulti replays src through pred and the multi-level estimator.
func RunMulti(src trace.Source, pred predictor.Predictor, est *core.MultiEstimator) (MultiResult, error) {
	res := MultiResult{Levels: make([]LevelTally, est.Levels())}
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		level := est.Level(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Levels[level].Branches++
		if incorrect {
			res.Levels[level].Misses++
		}
	}
}
