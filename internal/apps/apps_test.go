package apps

import (
	"slices"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

func benchSource(t *testing.T, name string, n uint64) trace.Source {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestDualPathAccounting(t *testing.T) {
	src := benchSource(t, "groff", 100000)
	res, err := RunDualPath(src, predictor.Gshare64K(), core.PaperEstimator(16), DefaultDualPath())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 100000 {
		t.Fatalf("branches %d", res.Branches)
	}
	if res.CoveredMiss > res.Misses || res.Forks > res.Branches {
		t.Fatalf("inconsistent accounting %+v", res)
	}
	if res.BaseCycles != res.Misses*DefaultDualPath().MispredictPenalty {
		t.Fatalf("base cycles %d for %d misses", res.BaseCycles, res.Misses)
	}
}

func TestDualPathCoverageClaim(t *testing.T) {
	// §6: forking on ~20% of predictions captures over 80% of
	// mispredictions. Threshold 16 puts ~20% of branches in the low set.
	src := benchSource(t, "groff", 300000)
	res, err := RunDualPath(src, predictor.Gshare64K(), core.PaperEstimator(16), DefaultDualPath())
	if err != nil {
		t.Fatal(err)
	}
	// The thread limit denies some forks, so coverage lands below the raw
	// confidence coverage; it must still be substantial.
	if res.Coverage() < 0.5 {
		t.Fatalf("dual-path coverage %.2f too low", res.Coverage())
	}
	if res.PenaltySavings() <= 0 {
		t.Fatalf("dual-path saved nothing (%.3f)", res.PenaltySavings())
	}
	if res.ForkRate() > 0.35 {
		t.Fatalf("fork rate %.2f implausibly high", res.ForkRate())
	}
}

func TestDualPathSelectiveBeatsGreedy(t *testing.T) {
	// Forking indiscriminately (threshold max+1: everything low
	// confidence) must waste more cycles than confidence-guided forking
	// under the same thread limit.
	cfg := DefaultDualPath()
	sel, err := RunDualPath(benchSource(t, "groff", 200000), predictor.Gshare64K(), core.PaperEstimator(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunDualPath(benchSource(t, "groff", 200000), predictor.Gshare64K(), core.PaperEstimator(17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.ForkRate() <= sel.ForkRate() {
		t.Fatalf("greedy forked less (%.2f) than selective (%.2f)", greedy.ForkRate(), sel.ForkRate())
	}
	if sel.DualCycles >= greedy.DualCycles {
		t.Fatalf("selective (%d cycles) no better than greedy (%d)", sel.DualCycles, greedy.DualCycles)
	}
}

func TestDualPathRejectsBadConfig(t *testing.T) {
	cfg := DefaultDualPath()
	cfg.MaxThreads = 0
	if _, err := RunDualPath(benchSource(t, "groff", 10), predictor.Gshare64K(), core.PaperEstimator(16), cfg); err == nil {
		t.Fatal("MaxThreads 0 accepted")
	}
}

func newSMTThread(t *testing.T, name string, n uint64) *SMTThread {
	return &SMTThread{
		Name: name,
		Src:  benchSource(t, name, n),
		Pred: predictor.Gshare4K(),
		Est:  core.PaperEstimator(16),
	}
}

func TestSMTGatingImprovesEfficiency(t *testing.T) {
	mk := func() []*SMTThread {
		return []*SMTThread{
			newSMTThread(t, "groff", 200000),
			newSMTThread(t, "real_gcc", 200000),
			newSMTThread(t, "jpeg_play", 200000),
			newSMTThread(t, "sdet", 200000),
		}
	}
	base, err := RunSMT(mk(), SMTConfig{ResolveSlots: 6, Gated: false}, 400000)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := RunSMT(mk(), SMTConfig{ResolveSlots: 6, Gated: true}, 400000)
	if err != nil {
		t.Fatal(err)
	}
	if gated.GatedSkips == 0 {
		t.Fatal("gated policy never skipped")
	}
	if gated.Efficiency() <= base.Efficiency() {
		t.Fatalf("gating did not help: %.4f vs %.4f", gated.Efficiency(), base.Efficiency())
	}
}

func TestSMTAccounting(t *testing.T) {
	th := []*SMTThread{newSMTThread(t, "groff", 5000), newSMTThread(t, "gs", 5000)}
	res, err := RunSMT(th, SMTConfig{ResolveSlots: 4, Gated: true}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 || res.Useful == 0 {
		t.Fatalf("degenerate run %+v", res)
	}
	if res.Efficiency() <= 0 || res.Efficiency() > 1 {
		t.Fatalf("efficiency %v", res.Efficiency())
	}
}

func TestSMTRejectsBadConfig(t *testing.T) {
	if _, err := RunSMT(nil, SMTConfig{ResolveSlots: 4}, 10); err == nil {
		t.Fatal("empty threads accepted")
	}
	if _, err := RunSMT([]*SMTThread{newSMTThread(t, "groff", 10)}, SMTConfig{}, 10); err == nil {
		t.Fatal("zero ResolveSlots accepted")
	}
}

func TestReverserNeverHurtsOnProfiledData(t *testing.T) {
	// DESIGN.md invariant: with threshold > 0.5, reversal tuned on the
	// profiling run cannot increase mispredictions when evaluated on the
	// same data (each reversed bucket had majority-wrong predictions).
	spec, _ := workload.ByName("real_gcc")
	mkSrc := func() trace.Source {
		src, err := spec.FiniteSource(150000)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	newPred := func() predictor.Predictor { return predictor.Gshare4K() }
	newMech := func() core.Mechanism { return core.SmallResetting(12) }
	res, setSize, err := ReverserStudy(mkSrc(), mkSrc(), newPred, newMech, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReversedMisses > res.BaseMisses {
		t.Fatalf("reverser hurt on its own profile data: %d -> %d (set %d)",
			res.BaseMisses, res.ReversedMisses, setSize)
	}
}

func TestReverserEmptySetIsIdentity(t *testing.T) {
	src := benchSource(t, "groff", 20000)
	res, err := RunReverser(src, predictor.Gshare64K(), core.PaperResetting(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reversals != 0 || res.ReversedMisses != res.BaseMisses {
		t.Fatalf("empty set changed behaviour %+v", res)
	}
}

func TestReverserPaperFinding(t *testing.T) {
	// Table 1's hottest bucket is ~37.6% mispredicted — below 50% — so a
	// strict >50% threshold should normally produce a small or empty
	// reversal set on the big predictor. This reproduces the paper's
	// implicit caveat for the reverser application.
	src := benchSource(t, "groff", 300000)
	set, err := ProfileReverseSet(src, predictor.Gshare64K(), core.PaperResetting(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) > 2 {
		t.Fatalf("reversal set unexpectedly large: %v", set)
	}
}

func TestHybridComparison(t *testing.T) {
	src := benchSource(t, "verilog", 300000)
	cmpRes, err := CompareHybrids(src,
		func() predictor.Predictor { return predictor.NewBimodal(12) },
		func() predictor.Predictor { return predictor.NewGshare(12, 12) },
		12)
	if err != nil {
		t.Fatal(err)
	}
	if cmpRes.Branches != 300000 {
		t.Fatalf("branches %d", cmpRes.Branches)
	}
	worst := cmpRes.SoloA
	if cmpRes.SoloB > worst {
		worst = cmpRes.SoloB
	}
	if cmpRes.ConfHybrid > worst {
		t.Fatalf("confidence hybrid (%d) worse than worst component (%d)", cmpRes.ConfHybrid, worst)
	}
	// The confidence selector should be competitive with the tournament
	// chooser (within 20% relative).
	if float64(cmpRes.ConfHybrid) > 1.2*float64(cmpRes.Tournament) {
		t.Fatalf("confidence hybrid (%d) far behind tournament (%d)", cmpRes.ConfHybrid, cmpRes.Tournament)
	}
}

func TestConfidenceHybridInterface(t *testing.T) {
	h := DefaultConfidenceHybrid()
	r := trace.Record{PC: 0x1000, Target: 0x1040, Taken: true}
	h.Predict(r)
	h.Update(r)
	h.Reset()
	if h.Name() == "" {
		t.Fatal("empty name")
	}
	// Satisfies the predictor interface.
	var _ predictor.Predictor = h
}

func TestSMTPerThreadAccounting(t *testing.T) {
	th := []*SMTThread{newSMTThread(t, "groff", 20000), newSMTThread(t, "jpeg_play", 20000)}
	res, err := RunSMT(th, SMTConfig{ResolveSlots: 4, Gated: false}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerThreadUse) != 2 {
		t.Fatalf("%d per-thread entries", len(res.PerThreadUse))
	}
	var sum uint64
	for _, u := range res.PerThreadUse {
		if u == 0 {
			t.Fatal("a thread fetched nothing useful under round-robin")
		}
		sum += u
	}
	if sum > res.Useful {
		t.Fatalf("per-thread useful %d exceeds total %d", sum, res.Useful)
	}
}

func TestDualPathThreadLimitMatters(t *testing.T) {
	// More spare threads grant more forks at the same threshold.
	cfgTwo := DefaultDualPath()
	cfgFour := DefaultDualPath()
	cfgFour.MaxThreads = 4
	two, err := RunDualPath(benchSource(t, "real_gcc", 150000), predictor.Gshare64K(), core.PaperEstimator(16), cfgTwo)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunDualPath(benchSource(t, "real_gcc", 150000), predictor.Gshare64K(), core.PaperEstimator(16), cfgFour)
	if err != nil {
		t.Fatal(err)
	}
	if four.Forks <= two.Forks {
		t.Fatalf("4 threads forked %d, 2 threads %d", four.Forks, two.Forks)
	}
	if four.DeniedForks >= two.DeniedForks {
		t.Fatalf("4 threads denied %d, 2 threads %d", four.DeniedForks, two.DeniedForks)
	}
}

func TestHybridRateHelper(t *testing.T) {
	h := HybridComparison{Branches: 200, ConfHybrid: 20}
	if h.Rate(h.ConfHybrid) != 0.1 {
		t.Fatalf("rate %v", h.Rate(h.ConfHybrid))
	}
	if (HybridComparison{}).Rate(5) != 0 {
		t.Fatal("zero-branch rate nonzero")
	}
}

func TestReverserDeltaHelper(t *testing.T) {
	r := ReverserResult{Branches: 1000, BaseMisses: 100, ReversedMisses: 80}
	if got := r.Delta(); got != -0.02 {
		t.Fatalf("delta %v", got)
	}
	if (ReverserResult{}).Delta() != 0 {
		t.Fatal("zero-branch delta nonzero")
	}
}

// TestReverseSetAscends: the reversal set comes out in ascending bucket
// order, whatever order the profile's branches arrived in, so equal
// profiles give equal sets.
func TestReverseSetAscends(t *testing.T) {
	tm := analysis.TallyMap{}
	var want []uint64
	for b := uint64(40); b > 0; b-- { // buckets arrive in descending order
		misses := 10
		if b%3 == 0 {
			misses, want = 40, append(want, b)
		}
		for i := 0; i < 64; i++ {
			tm.Add(b, i < misses)
		}
	}
	slices.Reverse(want)
	set := ReverseSet(tm.Stats(), 0.3)
	if !slices.Equal(set, want) {
		t.Fatalf("ReverseSet = %v, want %v", set, want)
	}
	profiled, err := ProfileReverseSet(benchSource(t, "groff", 60000), predictor.Gshare4K(), core.PaperResetting(), 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiled) < 4 || !slices.IsSorted(profiled) {
		t.Fatalf("profiled reversal set %v is not ascending or too small to tell", profiled)
	}
}
