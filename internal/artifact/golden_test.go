package artifact_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/exp"
	"branchconf/internal/predictor"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// goldenRecord is one pinned store record: its kind, its exact key string
// and the SHA-256 of its encoded payload.
type goldenRecord struct {
	what string
	kind uint16
	key  string
	sum  string
}

// gccKey is real_gcc's spec identity as store keys spell it.
const gccKey = "{Name:real_gcc Seed:6998 Routines:160 PlainSites:14 Loops:2 LoopBody:2 TripMean:4 TripJitter:4 VariableTripFrac:0.35 ZipfSkew:1.1 Mix:{Biased:0.4 Periodic:0.12 Correlated:0.24 Phase:0.1 Random:0.015} NoiseLo:0.02 NoiseHi:0.035 DefaultBranches:1000000 TraceFile: TraceDigest: TraceCount:0}"

// goldenRecords pins one record of every kind the engine persists, built
// from real_gcc at 2,000 branches under gshare-64K (the state-lane
// predictor) and bimodal-4K (none), the paper's one-level PCxorBHR table,
// 1,000-branch segments for the streaming kinds, and a one-shard partial
// of the gating experiment.
var goldenRecords = []goldenRecord{
	{"replay buffer", artifact.KindReplayBuffer,
		"replay|v1|" + gccKey + "|n=2000",
		"750bcbfaef4cd5d80194d21adedf1973aab7f9cf81f9e92eb5a419de91d7fec0"},
	{"annotated stream with state lane", artifact.KindAnnotatedStream,
		"ann|v1|" + gccKey + "|n=2000|pred=gshare-64K",
		"2d6cbbc315de5f34ea1f30745279ac9034edede143c7588103e025d593cd108b"},
	{"annotated stream without state lane", artifact.KindAnnotatedStream,
		"ann|v1|" + gccKey + "|n=2000|pred=bimodal-4K",
		"cb2845dc3bf2f0656e03ade67558f7fd47a3b95e98b80fabdd243b5b3cea220f"},
	{"bucket stream", artifact.KindBucketStream,
		"bucket-hist|v1|" + gccKey + "|n=2000|pred=gshare-64K|geom=1lev|BHRxorPC|t16|c16|h16|one|s0",
		"abf760cf14e7efc01671f31993015b8e3b83e292b10bd8cad09c7cd9079951f0"},
	{"annotated segment 0", artifact.KindAnnotatedStream,
		"ann|v1|" + gccKey + "|n=2000|pred=gshare-64K|segsz=1000|seg=0",
		"e48792eb6eec91f036aca4c6ce49525f8593483193c070e635eb76be149a22a9"},
	{"annotated segment 1", artifact.KindAnnotatedStream,
		"ann|v1|" + gccKey + "|n=2000|pred=gshare-64K|segsz=1000|seg=1",
		"30189d7c9e14ca1a246f384a68ad89ca615f1f9845b5ee0a1128f8d464f4c104"},
	{"bucket segment 0", artifact.KindBucketStream,
		"bucket-hist|v1|" + gccKey + "|n=2000|pred=gshare-64K|geom=1lev|BHRxorPC|t16|c16|h16|one|s0|segsz=1000|seg=0",
		"65fe56f906f215723b11e0f36a6d9b4f0b5a66f8b413134bab23df187341c680"},
	{"bucket segment 1", artifact.KindBucketStream,
		"bucket-hist|v1|" + gccKey + "|n=2000|pred=gshare-64K|geom=1lev|BHRxorPC|t16|c16|h16|one|s0|segsz=1000|seg=1",
		"2a7b716d39c31fe7e485d3e0cb1525ffe9389f0ebc4330f8c0f1d2a82f208d28"},
	{"predictor checkpoint", artifact.KindCheckpoint,
		"ckpt|v1|" + gccKey + "|n=2000|pred=gshare-64K|segsz=1000|b=1000",
		"3b4be5ccb78516ec32f7de04dabbb37c013abb6727383f46708341178b8922e0"},
	{"factor-state checkpoint", artifact.KindCheckpoint,
		"ckpt|v1|" + gccKey + "|n=2000|pred=gshare-64K|geom=1lev|BHRxorPC|t16|c16|h16|one|s0|segsz=1000|b=1000",
		"2fc77ca5d9c181f314b6412a844e78af2805029273ea91ce670cd04668d5b5fe"},
	{"curve", artifact.KindCurve,
		"curve|v1|7971537262902e703d37e218de66466df4a525aefd9a649120de51bc863298cd|mode=single|merge=",
		"390a4deae55920b50ff5cfb16f64f2e5c905d0fca2af48c0e12a32674a4070b9"},
	{"model counts", artifact.KindModelStats,
		"model|v1|gating|suite=groff+gs+jpeg_play+mpeg_play+nroff+real_gcc+sdet+verilog+video_play|n=2000|pred=gshare4k|est=paper8|resolve=4|thrs=[0 4 2 1]",
		"f7a7788aae2124e10521f2989dce459f19561cdecaeff7bcc58149895ee7edff"},
	{"fan-out partial", artifact.KindPartial,
		"partial|fmt=2|req{b=2000|only=gating|ablations=true|timings=false|seg=0|trace=:0}|shard=0/1",
		"0cbed81dce1f50a1b39087469ba215e38a05d0958ec85a3c33695e2c28e8060f"},
}

// fillGoldenStore runs the fixed input through the engine's public entry
// points with store as the default artifact store.
func fillGoldenStore(t *testing.T, store *artifact.Store) {
	t.Helper()
	artifact.SetDefault(store)
	defer artifact.SetDefault(nil)
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	if _, err := workload.Materialize(spec, n); err != nil {
		t.Fatal(err)
	}
	gshare := func() predictor.Predictor { return predictor.NewGshare(16, 16) }
	bimodal := func() predictor.Predictor { return predictor.NewBimodal(12) }
	onelevel := func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) }
	cfg := sim.SuiteConfig{Branches: n, Specs: []workload.Spec{spec}}
	res, err := sim.RunSuiteAnnotated(cfg, "gshare-64K", gshare, []func() core.Mechanism{onelevel})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sim.Lanes(cfg, spec, "bimodal-4K", bimodal, nil); err != nil {
		t.Fatal(err)
	}
	seg := cfg
	seg.SegmentBranches = 1000
	if _, err := sim.RunSuiteAnnotated(seg, "gshare-64K", gshare, []func() core.Mechanism{onelevel}); err != nil {
		t.Fatal(err)
	}
	session := exp.NewSession(exp.Config{Branches: n})
	session.SingleRun(res[0].Runs[0]).Curve()
	req := serve.ReportRequest{Branches: n, Only: []string{"gating"}, NoTimings: true}
	p, err := serve.BuildPartial(session, req, serve.BuildOptions{Parallel: 1}, serve.Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !serve.PublishPartial(p) {
		t.Fatal("no default store to publish the partial to")
	}
}

// TestGoldenStoreBytes pins the exact key and the SHA-256 of the encoded
// payload of one record of every kind, so a change to any store key or
// payload codec fails here. Round-trip and fuzz tests cannot catch a
// symmetric codec change; this test does.
func TestGoldenStoreBytes(t *testing.T) {
	// The engine's memory tiers are process-wide, and a warm tier never
	// reaches the store; under go test -count>1 a rerun in the same
	// process has nothing to check.
	for _, tier := range exp.CacheTiers() {
		switch tier.Name {
		case "trace-memo", "annotated-stream", "bucket-stream", "model-stats", "curve":
			if tier.Stats.Hits+tier.Stats.Misses > 0 {
				t.Skipf("the %s tier is already warm in this process; the golden needs cold tiers", tier.Name)
			}
		}
	}
	store, err := artifact.OpenStore(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fillGoldenStore(t, store)
	for _, g := range goldenRecords {
		payload, ok := store.Get(g.kind, g.key)
		if !ok {
			t.Errorf("%s: no record under key %q", g.what, g.key)
			continue
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != g.sum {
			t.Errorf("%s: payload SHA-256 %s, golden %s", g.what, got, g.sum)
		}
	}
	if t.Failed() {
		t.Log("A changed store key or payload orphans every existing store: " +
			"bump artifact.FormatVersion (serve.PartialFormatVersion for partials) " +
			"with the change, then update these goldens.")
	}
}
