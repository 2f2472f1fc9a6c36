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

func smallTrace(n int) trace.Trace {
	tr := make(trace.Trace, n)
	for i := range tr {
		pc := uint64(0x1000 + 8*(i%16))
		tr[i] = trace.Record{PC: pc, Target: pc + 64, Taken: i%3 != 0}
	}
	return tr
}

func TestRunCountsConsistent(t *testing.T) {
	tr := smallTrace(1000)
	res, err := Run(tr.Source(), predictor.NewBimodal(10), core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 1000 {
		t.Fatalf("branches %d", res.Branches)
	}
	e, m := res.Buckets.Totals()
	if e != res.Branches || m != res.Misses {
		t.Fatalf("bucket totals %d/%d vs run %d/%d", e, m, res.Branches, res.Misses)
	}
	if res.MissRate() <= 0 || res.MissRate() >= 1 {
		t.Fatalf("miss rate %v", res.MissRate())
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallTrace(2000)
	a, err := Run(tr.Source(), predictor.Gshare4K(), core.PaperOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr.Source(), predictor.Gshare4K(), core.PaperOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	if a.Misses != b.Misses || len(a.Buckets) != len(b.Buckets) {
		t.Fatalf("nondeterministic run: %d/%d vs %d/%d", a.Misses, len(a.Buckets), b.Misses, len(b.Buckets))
	}
}

// nullMech is a single-bucket mechanism, for when only predictor accuracy
// is of interest.
type nullMech struct{}

func (nullMech) Bucket(trace.Record) uint64 { return 0 }
func (nullMech) Update(trace.Record, bool)  {}
func (nullMech) Reset()                     {}
func (nullMech) Name() string               { return "null" }

func TestPredictOnly(t *testing.T) {
	tr := smallTrace(500)
	res, err := Run(tr.Source(), predictor.AlwaysTaken{}, nullMech{})
	if err != nil {
		t.Fatal(err)
	}
	// i%3 != 0 taken: not-taken on 0,3,6... → ~1/3 of 500 mispredictions.
	if res.Misses < 150 || res.Misses > 180 {
		t.Fatalf("always-taken misses %d, want ~167", res.Misses)
	}
	if len(res.Buckets) != 1 {
		t.Fatalf("null mechanism produced %d buckets", len(res.Buckets))
	}
}

func TestRunEstimatorConfusionConsistent(t *testing.T) {
	tr := smallTrace(2000)
	res, err := RunEstimator(tr.Source(), predictor.NewBimodal(10), core.PaperEstimator(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 2000 {
		t.Fatalf("branches %d", res.Branches)
	}
	if res.Low > res.Branches || res.LowMisses > res.Misses || res.LowMisses > res.Low {
		t.Fatalf("inconsistent confusion %+v", res)
	}
	if res.High()+res.Low != res.Branches {
		t.Fatal("high+low != branches")
	}
	if res.HighMisses()+res.LowMisses != res.Misses {
		t.Fatal("high+low misses != misses")
	}
	if res.LowFrac() < 0 || res.LowFrac() > 1 || res.Coverage() < 0 || res.Coverage() > 1 {
		t.Fatalf("fractions out of range %+v", res)
	}
}

func TestEstimatorThresholdMonotone(t *testing.T) {
	// Raising the resetting threshold can only enlarge the low set and its
	// misprediction coverage.
	tr := smallTrace(5000)
	var prevLow, prevCov float64
	for _, thr := range []uint64{1, 4, 8, 16} {
		res, err := RunEstimator(tr.Source(), predictor.NewBimodal(10), core.PaperEstimator(thr))
		if err != nil {
			t.Fatal(err)
		}
		if res.LowFrac() < prevLow-1e-12 || res.Coverage() < prevCov-1e-12 {
			t.Fatalf("threshold %d shrank low set: %v/%v after %v/%v",
				thr, res.LowFrac(), res.Coverage(), prevLow, prevCov)
		}
		prevLow, prevCov = res.LowFrac(), res.Coverage()
	}
}

func TestEstimatorPVNExceedsBaseRate(t *testing.T) {
	// The low-confidence set must be enriched in mispredictions: that is
	// the whole point of the mechanism.
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(200000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEstimator(src, predictor.Gshare64K(), core.PaperEstimator(16))
	if err != nil {
		t.Fatal(err)
	}
	base := float64(res.Misses) / float64(res.Branches)
	if res.PVN() < 2*base {
		t.Fatalf("PVN %.3f not enriched over base rate %.3f", res.PVN(), base)
	}
	if res.Coverage() < 0.70 {
		t.Fatalf("threshold-16 coverage %.2f, expected > 0.70", res.Coverage())
	}
}

func TestEstimatorConfusionQuadrant(t *testing.T) {
	tr := smallTrace(3000)
	res, err := RunEstimator(tr.Source(), predictor.NewBimodal(10), core.PaperEstimator(8))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Confusion()
	if c.Total() != res.Branches {
		t.Fatalf("quadrant total %d vs branches %d", c.Total(), res.Branches)
	}
	if c.Misses() != res.Misses {
		t.Fatalf("quadrant misses %d vs %d", c.Misses(), res.Misses)
	}
	if got, want := c.Sens(), res.Coverage(); got != want {
		t.Fatalf("Sens %v vs Coverage %v", got, want)
	}
	if got, want := c.PVN(), res.PVN(); got != want {
		t.Fatalf("Confusion.PVN %v vs result PVN %v", got, want)
	}
	if got, want := c.LowFrac(), res.LowFrac(); got != want {
		t.Fatalf("LowFrac %v vs %v", got, want)
	}
}

// runSuiteOne is a single-mechanism RunSuiteAnnotated call.
func runSuiteOne(cfg SuiteConfig, predKey string, newPred func() predictor.Predictor, newMech func() core.Mechanism) (SuiteResult, error) {
	rs, err := RunSuiteAnnotated(cfg, predKey, newPred, []func() core.Mechanism{newMech})
	if err != nil {
		return SuiteResult{}, err
	}
	return rs[0], nil
}

func TestRunSuite(t *testing.T) {
	resetEngineCaches(t)
	cfg := SuiteConfig{Branches: 20000}
	sr, err := runSuiteOne(cfg, "gshare-4K",
		func() predictor.Predictor { return predictor.Gshare4K() },
		func() core.Mechanism { return core.SmallResetting(12) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 9 {
		t.Fatalf("%d runs", len(sr.Runs))
	}
	for _, r := range sr.Runs {
		if r.Branches != 20000 {
			t.Fatalf("%s: %d branches", r.Benchmark, r.Branches)
		}
	}
	if rate := sr.CompositeMissRate(); rate <= 0 || rate > 0.5 {
		t.Fatalf("composite rate %v", rate)
	}
	if _, err := sr.ByName("real_gcc"); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ByName("nonesuch"); err == nil {
		t.Fatal("found nonexistent benchmark")
	}
	if len(sr.Stats()) != 9 {
		t.Fatal("stats length")
	}
}

func TestRunSuiteSubset(t *testing.T) {
	spec, err := workload.ByName("jpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	resetEngineCaches(t)
	cfg := SuiteConfig{Branches: 5000, Specs: []workload.Spec{spec}}
	sr, err := runSuiteOne(cfg, predictor.NewBimodal(10).Name(),
		func() predictor.Predictor { return predictor.NewBimodal(10) },
		func() core.Mechanism { return core.NewStaticProfile() })
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 1 || sr.Runs[0].Benchmark != "jpeg_play" {
		t.Fatalf("runs %+v", sr.Runs)
	}
}

func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	// The suite engine runs benchmarks concurrently; results must be
	// identical to independent serial runs (each run is self-contained).
	resetEngineCaches(t)
	cfg := SuiteConfig{Branches: 15000}
	sr, err := runSuiteOne(cfg, "gshare-4K",
		func() predictor.Predictor { return predictor.Gshare4K() },
		func() core.Mechanism { return core.SmallResetting(12) })
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range workload.Suite() {
		src, err := spec.FiniteSource(cfg.Branches)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Run(src, predictor.Gshare4K(), core.SmallResetting(12))
		if err != nil {
			t.Fatal(err)
		}
		got := sr.Runs[i]
		if got.Benchmark != spec.Name {
			t.Fatalf("run %d is %s, want %s (order broken)", i, got.Benchmark, spec.Name)
		}
		if got.Misses != serial.Misses || got.Branches != serial.Branches {
			t.Fatalf("%s: parallel %d/%d vs serial %d/%d",
				spec.Name, got.Misses, got.Branches, serial.Misses, serial.Branches)
		}
		if len(got.Buckets) != len(serial.Buckets) {
			t.Fatalf("%s: bucket count differs", spec.Name)
		}
	}
}

// RunEstimator replays src through pred and the online estimator,
// recording the confusion summary.
func RunEstimator(src trace.Source, pred predictor.Predictor, est *core.Estimator) (EstimatorResult, error) {
	var res EstimatorResult
	for {
		r, err := src.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("sim: reading trace: %w", err)
		}
		confident := est.Confident(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		res.Branches++
		if !confident {
			res.Low++
		}
		if incorrect {
			res.Misses++
			if !confident {
				res.LowMisses++
			}
		}
	}
}
