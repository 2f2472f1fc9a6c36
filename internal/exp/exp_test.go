package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// fastCfg keeps experiment tests quick; full-length runs happen in the
// benchmark harness and cmd/paperrepro.
var fastCfg = Config{Branches: 60000}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig5", "fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11",
		"baseline", "thresholds", "apps",
		"multilevel", "ctxswitch", "ctxswitch-mix", "gating", "perbench", "pipeline", "dualpath-ipc", "strength", "replication",
		"ablation-index", "ablation-cirwidth", "ablation-l2index", "ablation-countermax", "ablation-costsplit",
		"static-realistic", "ablation-weighted",
	}
	got := map[string]bool{}
	for _, id := range IDs() {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("registry missing %q (have %v)", id, IDs())
		}
	}
	if len(All()) != len(IDs()) {
		t.Fatal("All/IDs length mismatch")
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if e.Title == "" || e.Paper == "" {
		t.Fatal("experiment missing metadata")
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id found")
	}
}

func TestFig2Static(t *testing.T) {
	e, _ := ByID("fig2")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Series) != 1 {
		t.Fatalf("%d series", len(o.Series))
	}
	at20 := o.Scalars["mispreds@20%"]
	// The static method concentrates mispredictions well above uniform but
	// below the dynamic methods (paper: ~63%).
	if at20 < 35 || at20 > 90 {
		t.Fatalf("static @20%% = %.1f, outside sanity band", at20)
	}
	if !strings.Contains(o.Text, "static") {
		t.Fatal("text missing series label")
	}
}

func TestFig5OneLevelOrdering(t *testing.T) {
	e, _ := ByID("fig5")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	pc := o.Scalars["PC@20%"]
	bhr := o.Scalars["BHR@20%"]
	xor := o.Scalars["BHRxorPC@20%"]
	// Paper ordering at 20%: PCxorBHR > BHR > PC (89/85/72).
	if !(xor > bhr && bhr > pc) {
		t.Fatalf("ordering violated: xor %.1f bhr %.1f pc %.1f", xor, bhr, pc)
	}
	if xor < 70 {
		t.Fatalf("best one-level @20%% = %.1f, far below paper's 89", xor)
	}
	// All dynamic methods beat static (paper's central claim).
	static := o.Series[0].Curve.MispredsAt(20)
	if xor <= static || bhr <= static {
		t.Fatalf("dynamic methods failed to beat static (%.1f)", static)
	}
	// Zero bucket holds most branches and few mispredictions.
	if zb := o.Scalars["zeroBucketBranches%"]; zb < 50 {
		t.Fatalf("zero bucket only %.1f%% of branches (paper ~80%%)", zb)
	}
	if zm := o.Scalars["zeroBucketMispreds%"]; zm > 35 {
		t.Fatalf("zero bucket holds %.1f%% of mispredictions (paper 12-15%%)", zm)
	}
}

func TestFig7OneLevelMatchesTwoLevel(t *testing.T) {
	e, _ := ByID("fig7")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	one, two, static := o.Scalars["1lev@20%"], o.Scalars["2lev@20%"], o.Scalars["static@20%"]
	// Paper: very similar performance; two-level not clearly better.
	if two > one+6 {
		t.Fatalf("two-level (%.1f) much better than one-level (%.1f) — contradicts paper", two, one)
	}
	if one <= static {
		t.Fatalf("one-level (%.1f) not better than static (%.1f)", one, static)
	}
}

func TestFig8ReductionOrdering(t *testing.T) {
	e, _ := ByID("fig8")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	ideal := o.Scalars["ideal@20%"]
	reset := o.Scalars["Reset@20%"]
	sat := o.Scalars["Sat@20%"]
	// Resetting tracks ideal closely; saturating caps out earlier because
	// its max bucket swallows mispredictions (paper: cannot partition past
	// ~60% coverage).
	if ideal-reset > 12 {
		t.Fatalf("resetting (%.1f) far from ideal (%.1f)", reset, ideal)
	}
	if sat > reset {
		t.Fatalf("saturating (%.1f) beat resetting (%.1f) at 20%% — contradicts paper", sat, reset)
	}
	if len(o.Series) != 4 {
		t.Fatalf("%d series", len(o.Series))
	}
}

func TestTable1Shape(t *testing.T) {
	e, _ := ByID("table1")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) != 17 {
		t.Fatalf("%d rows, want 17", len(o.Rows))
	}
	// Misprediction rate decreases with counter value (monotone trend:
	// compare endpoints and mid).
	if !(o.Rows[0].MissRate > o.Rows[8].MissRate && o.Rows[8].MissRate > o.Rows[16].MissRate) {
		t.Fatalf("rates not decreasing: %.3f %.3f %.3f",
			o.Rows[0].MissRate, o.Rows[8].MissRate, o.Rows[16].MissRate)
	}
	// Count 0 concentrates a large share of mispredictions in few refs.
	if o.Rows[0].CumMissesPct < 20 || o.Rows[0].CumRefsPct > 15 {
		t.Fatalf("count-0 row %.1f%% mispreds in %.1f%% refs (paper 41.7%% in 4.28%%)",
			o.Rows[0].CumMissesPct, o.Rows[0].CumRefsPct)
	}
	// Count 16 is the zero-bucket analogue: most branches live there.
	last := o.Rows[16]
	if last.RefsPct < 50 {
		t.Fatalf("saturated bucket holds only %.1f%% of refs", last.RefsPct)
	}
	if last.CumRefsPct < 99.999 || last.CumMissesPct < 99.999 {
		t.Fatalf("cumulative end %.2f/%.2f", last.CumRefsPct, last.CumMissesPct)
	}
}

func TestFig9Extremes(t *testing.T) {
	e, _ := ByID("fig9")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	if o.Scalars["jpeg_play-missRate"] >= o.Scalars["real_gcc-missRate"] {
		t.Fatal("jpeg_play not easier than real_gcc")
	}
	if len(o.Series) != 2 {
		t.Fatalf("%d series", len(o.Series))
	}
}

func TestFig10SmallTablesDegradeGracefully(t *testing.T) {
	e, _ := ByID("fig10")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	big := o.Scalars["4096@20%"]
	small := o.Scalars["128@20%"]
	if big < 55 {
		t.Fatalf("4096-entry CT @20%% = %.1f, paper ~75", big)
	}
	if small >= big {
		t.Fatalf("128-entry (%.1f) not worse than 4096-entry (%.1f)", small, big)
	}
}

func TestFig11InitPolicies(t *testing.T) {
	e, _ := ByID("fig11")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	ones, zeros := o.Scalars["one@20%"], o.Scalars["zero@20%"]
	last, random := o.Scalars["lastbit@20%"], o.Scalars["random@20%"]
	if zeros > ones {
		t.Fatalf("zeros (%.1f) beat ones (%.1f) — contradicts paper", zeros, ones)
	}
	// Nonzero policies perform similarly (within a few points).
	if diff := ones - last; diff > 6 || diff < -6 {
		t.Fatalf("ones (%.1f) vs lastbit (%.1f) differ too much", ones, last)
	}
	if diff := ones - random; diff > 6 || diff < -6 {
		t.Fatalf("ones (%.1f) vs random (%.1f) differ too much", ones, random)
	}
}

func TestAblationIndexConfirmsPaperClaims(t *testing.T) {
	e, _ := ByID("ablation-index")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	xor := o.Scalars["BHRxorPC@20%"]
	gcir := o.Scalars["GCIR@20%"]
	if gcir >= xor {
		t.Fatalf("GCIR (%.1f) not worse than BHRxorPC (%.1f) — paper dismissed it", gcir, xor)
	}
	concat := o.Scalars["PCcatBHR@20%"]
	if concat > xor+3 {
		t.Fatalf("concatenation (%.1f) clearly beat xor (%.1f) — contradicts paper", concat, xor)
	}
}

func TestThresholdsExperiment(t *testing.T) {
	e, _ := ByID("thresholds")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// Coverage grows with threshold.
	if o.Scalars["thr16-coverage%"] <= o.Scalars["thr1-coverage%"] {
		t.Fatal("coverage not increasing in threshold")
	}
	if o.Scalars["thr16-low%"] <= o.Scalars["thr1-low%"] {
		t.Fatal("low-set size not increasing in threshold")
	}
}

func TestMultilevelExperiment(t *testing.T) {
	e, _ := ByID("multilevel")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// Enrichment must decrease with level: level 0 concentrates misses.
	l0 := o.Scalars["level0-mispreds%"] / o.Scalars["level0-branches%"]
	l3 := o.Scalars["level3-mispreds%"] / o.Scalars["level3-branches%"]
	if l0 <= 1 || l3 >= 1 {
		t.Fatalf("enrichment not ordered: level0 %.2fx level3 %.2fx", l0, l3)
	}
}

func TestCtxSwitchExperiment(t *testing.T) {
	e, _ := ByID("ctxswitch")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	keep := o.Scalars["keep@20%"]
	markOldest := o.Scalars["mark-oldest@20%"]
	zeros := o.Scalars["flush-zeros@20%"]
	// §5.4 conjecture: mark-oldest performs like keeping the tables.
	if diff := keep - markOldest; diff > 4 || diff < -4 {
		t.Fatalf("mark-oldest (%.1f) far from keep (%.1f)", markOldest, keep)
	}
	if zeros >= keep {
		t.Fatalf("flush-to-zeros (%.1f) not worse than keep (%.1f)", zeros, keep)
	}
}

// TestCtxSwitchFlushes runs ctxswitch past its 64,000-branch switch
// interval, two switches per benchmark. fastCfg ends before the first
// switch, so only here must a flush policy move the curve away from keep.
// The rendered text is pinned.
func TestCtxSwitchFlushes(t *testing.T) {
	const want = "ea60e0306539a03bc29b0bc22ac7e7be1581abfb46744d306f2e3452fd8476ec"
	e, _ := ByID("ctxswitch")
	o, err := e.Run(NewSession(Config{Branches: 130_000}))
	if err != nil {
		t.Fatal(err)
	}
	if ones, keep := o.Scalars["flush-ones@20%"], o.Scalars["keep@20%"]; ones == keep {
		t.Fatalf("flush-ones@20%% equals keep@20%% (%v): no flush was applied", keep)
	}
	sum := sha256.Sum256([]byte(o.Text))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("rendered ctxswitch text sha256 %s, want %s\n%s", got, want, o.Text)
	}
}

func TestGatingExperiment(t *testing.T) {
	e, _ := ByID("gating")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	if o.Scalars["thr1-wasted%"] >= o.Scalars["throff-wasted%"] {
		t.Fatal("aggressive gating did not reduce wasted work")
	}
	if o.Scalars["throff-stalled%"] != 0 {
		t.Fatal("ungated baseline stalled")
	}
}

func TestPipelineExperiment(t *testing.T) {
	e, _ := ByID("pipeline")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// The oracle bounds every policy: no higher waste than ungated, no
	// lower IPC than any real-estimator gate.
	if o.Scalars["oracle-gate1-waste%"] >= o.Scalars["ungated-waste%"] {
		t.Fatal("oracle gating failed to cut waste")
	}
	if o.Scalars["oracle-gate1-ipc"] < o.Scalars["est2-gate1-ipc"] {
		t.Fatal("oracle IPC below real-estimator IPC")
	}
	if o.Scalars["est2-gate1-waste%"] >= o.Scalars["est8-gate4-waste%"] {
		t.Fatal("aggressive gating did not cut waste further")
	}
}

func TestPerbenchExperiment(t *testing.T) {
	e, _ := ByID("perbench")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Series) != 9 {
		t.Fatalf("%d series", len(o.Series))
	}
	if o.Scalars["spread@20%"] <= 0 {
		t.Fatal("no per-benchmark spread measured")
	}
}

func TestCtxSwitchMixExperiment(t *testing.T) {
	e, _ := ByID("ctxswitch-mix")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	solo := o.Scalars["solo@20%"]
	q1k := o.Scalars["mix-q1000@20%"]
	if q1k >= solo {
		t.Fatalf("fine-grained mixing (%.1f) not worse than solo (%.1f)", q1k, solo)
	}
	// Finer quanta pollute the shared tables more (misprediction rate up).
	if o.Scalars["mix-q1000-missRate%"] <= o.Scalars["mix-q100000-missRate%"] {
		t.Fatal("finer time slicing did not raise the misprediction rate")
	}
}

func TestStrengthExperiment(t *testing.T) {
	e, _ := ByID("strength")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// The identity: 2-bit counter weakness marks exactly the entries whose
	// last access mispredicted, i.e. resetting counter == 0 at congruent
	// geometry. The two coverages must agree to numerical precision.
	diff := o.Scalars["strength-coverage%"] - o.Scalars["resetting-coverage%"]
	if diff > 0.01 || diff < -0.01 {
		t.Fatalf("identity violated: strength %.3f vs resetting %.3f",
			o.Scalars["strength-coverage%"], o.Scalars["resetting-coverage%"])
	}
	// The dedicated table's value is the operating range beyond the free
	// signal's single point.
	if o.Scalars["resetting@20%"] <= o.Scalars["strength-coverage%"] {
		t.Fatal("resetting table at 20% no better than the free strength point")
	}
}

func TestReplicationExperiment(t *testing.T) {
	e, _ := ByID("replication")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// Conclusions must be seed-robust: coverage@20 varies by a few points,
	// not tens, and stays far above the static method's ~60-70%.
	if o.Scalars["ideal@20%-spread"] > 10 {
		t.Fatalf("coverage spread %.1f points across seeds — conclusions fragile", o.Scalars["ideal@20%-spread"])
	}
	if o.Scalars["ideal@20%-min"] < 72 {
		t.Fatalf("worst-seed coverage %.1f — below the static baseline region", o.Scalars["ideal@20%-min"])
	}
}

func TestCostSplitExperiment(t *testing.T) {
	e, _ := ByID("ablation-costsplit")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// All-predictor split: best raw accuracy, zero recoverable penalty.
	if o.Scalars["2^16+2^0-savings%"] != 0 {
		t.Fatal("no-CT split claims dual-path savings")
	}
	if o.Scalars["2^16+2^0-miss%"] >= o.Scalars["2^13+2^15-miss%"] {
		t.Fatal("bigger predictor did not predict better")
	}
	// Funding the CT buys recoverable penalty.
	if o.Scalars["2^13+2^15-savings%"] <= o.Scalars["2^15+2^13-savings%"] {
		t.Fatal("bigger CT did not buy more recoverable penalty")
	}
}

func TestStaticRealisticExperiment(t *testing.T) {
	e, _ := ByID("static-realistic")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-sample profiling cannot beat self-profiling; the gap exists
	// but stays modest (behaviour classes are stationary).
	gap := o.Scalars["optimism-gap@20%"]
	if gap < 0 {
		t.Fatalf("realistic static beat optimistic static by %.1f points", -gap)
	}
	if gap > 25 {
		t.Fatalf("optimism gap %.1f points — profile transfers worse than plausible", gap)
	}
}

func TestWeightedOnesExperiment(t *testing.T) {
	e, _ := ByID("ablation-weighted")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	ideal, plain, weighted := o.Scalars["ideal@20%"], o.Scalars["plain@20%"], o.Scalars["weighted@20%"]
	// §5.1's observation quantified: recency weighting improves on plain
	// ones counting without exceeding the ideal reduction.
	if weighted <= plain {
		t.Fatalf("weighted (%.1f) not above plain ones count (%.1f)", weighted, plain)
	}
	if weighted > ideal+0.5 {
		t.Fatalf("weighted (%.1f) exceeded ideal (%.1f)", weighted, ideal)
	}
}

func TestDualPathIPCExperiment(t *testing.T) {
	e, _ := ByID("dualpath-ipc")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	base := o.Scalars["no-dual-path-ipc"]
	est := o.Scalars["est4-forks-ipc"]
	oracle := o.Scalars["oracle-forks-ipc"]
	// The §1/§6 claim in time: selective dual-path execution recovers
	// cycles, bounded above by the oracle.
	if est <= base {
		t.Fatalf("dual-path IPC %.3f not above baseline %.3f", est, base)
	}
	if oracle < est {
		t.Fatalf("oracle IPC %.3f below real estimator %.3f", oracle, est)
	}
	if o.Scalars["est4-forks-covered%"] <= 0 {
		t.Fatal("no coverage recorded")
	}
}
