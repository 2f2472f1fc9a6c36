package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// goldenBranches is the fixed trace length the model golden vectors are
// recorded at: small enough to run in milliseconds, long enough for the
// models' counters to move.
const goldenBranches = 2000

// goldenModel is one model configuration the report runs, computed on one
// benchmark (the SMT mix on four) of a session.
type goldenModel struct {
	name string
	run  func(s *Session, spec workload.Spec) ([]uint64, error)
}

// goldenModels lists every model configuration the report's model
// experiments key a record by (pipeline, dualpath-ipc, apps, gating,
// ablation-costsplit).
func goldenModels() []goldenModel {
	pipe := func(sig laneSignal, gate int) func(*Session, workload.Spec) ([]uint64, error) {
		cfg := pipeline.Default96()
		cfg.GateThreshold = gate
		return func(s *Session, spec workload.Spec) ([]uint64, error) { return s.runPipeline(spec, sig, cfg) }
	}
	dual := func(sig laneSignal) func(*Session, workload.Spec) ([]uint64, error) {
		cfg := pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1}
		return func(s *Session, spec workload.Spec) ([]uint64, error) { return s.runPipeDual(spec, sig, cfg) }
	}
	smt := func(gated bool) func(*Session, workload.Spec) ([]uint64, error) {
		return func(s *Session, _ workload.Spec) ([]uint64, error) {
			var mix []workload.Spec
			for _, name := range []string{"groff", "real_gcc", "jpeg_play", "sdet"} {
				spec, err := workload.ByName(name)
				if err != nil {
					return nil, err
				}
				mix = append(mix, spec)
			}
			return s.runSMT(mix, apps.SMTConfig{ResolveSlots: 6, Gated: gated}, 4*s.Branches())
		}
	}
	costsplit := func(predBits, ctBits uint) func(*Session, workload.Spec) ([]uint64, error) {
		pred := Pred(func() predictor.Predictor { return predictor.NewGshare(predBits, predBits) })
		table := func() *core.CounterTable {
			return core.NewCounterTable(core.CounterConfig{Kind: core.Resetting, Scheme: core.IndexPCxorBHR, TableBits: ctBits, HistoryBits: predBits})
		}
		return func(s *Session, spec workload.Spec) ([]uint64, error) {
			return s.runAppDual(spec, pred, laneSignal{table: table, thr: 16}, apps.DefaultDualPath())
		}
	}
	oracle := laneSignal{oracle: true}
	return []goldenModel{
		{"pipeline/ungated", pipe(laneSignal{}, 0)},
		{"pipeline/est8-gate4", pipe(paperSignal(8), 4)},
		{"pipeline/est4-gate2", pipe(paperSignal(4), 2)},
		{"pipeline/est2-gate1", pipe(paperSignal(2), 1)},
		{"pipeline/oracle-gate1", pipe(oracle, 1)},
		{"pipeline/depth12-ungated", func(s *Session, spec workload.Spec) ([]uint64, error) {
			return s.runPipeline(spec, laneSignal{}, pipeline.Config{FetchWidth: 4, Depth: 12})
		}},
		{"pipedual/est4", dual(paperSignal(4))},
		{"pipedual/est8", dual(paperSignal(8))},
		{"pipedual/oracle", dual(oracle)},
		{"appdual/gshare64k-paper16", func(s *Session, spec workload.Spec) ([]uint64, error) {
			return s.runAppDual(spec, predGshare64K, paperSignal(16), apps.DefaultDualPath())
		}},
		{"appdual/costsplit-15-13", costsplit(15, 13)},
		{"appdual/costsplit-15-14", costsplit(15, 14)},
		{"appdual/costsplit-14-14", costsplit(14, 14)},
		{"appdual/costsplit-13-15", costsplit(13, 15)},
		{"smt/round-robin", smt(false)},
		{"smt/gated", smt(true)},
		{"hybrid", func(s *Session, spec workload.Spec) ([]uint64, error) { return s.runHybrid(spec) }},
		{"reverser", func(s *Session, spec workload.Spec) ([]uint64, error) { return s.runReverser(spec, 0.55) }},
		// At 0.55 the short trace reverses nothing; a lower bar exercises
		// the reversal counts too.
		{"reverser/thr0.3", func(s *Session, spec workload.Spec) ([]uint64, error) { return s.runReverser(spec, 0.3) }},
		{"gating", func(s *Session, spec workload.Spec) ([]uint64, error) {
			var cfgs []apps.GateConfig
			for _, thr := range []int{0, 4, 2, 1} {
				cfgs = append(cfgs, apps.GateConfig{ResolveDistance: 4, Threshold: thr})
			}
			return s.runGating(spec, cfgs)
		}},
	}
}

// modelGolden holds every model's count vector on real_gcc at
// goldenBranches branches.
var modelGolden = map[string][]uint64{
	"pipeline/ungated":          {7091, 14071, 14289, 0, 2000, 484},
	"pipeline/est8-gate4":       {7626, 14071, 13809, 2620, 2000, 484},
	"pipeline/est4-gate2":       {10457, 14071, 9889, 17864, 2000, 484},
	"pipeline/est2-gate1":       {15813, 14071, 1101, 48076, 2000, 484},
	"pipeline/oracle-gate1":     {7091, 14071, 737, 13552, 2000, 484},
	"pipeline/depth12-ungated":  {9027, 14071, 22033, 0, 2000, 484},
	"pipedual/est4":             {8364, 14071, 13716, 0, 2000, 484, 515, 129, 5665},
	"pipedual/est8":             {8396, 14071, 13800, 0, 2000, 484, 519, 127, 5709},
	"pipedual/oracle":           {6299, 14071, 8107, 0, 2000, 484, 274, 274, 3014},
	"appdual/gshare64k-paper16": {2000, 482, 1000, 239, 1000, 4820, 3430},
	"appdual/costsplit-15-13":   {2000, 470, 1000, 228, 1000, 4700, 3420},
	"appdual/costsplit-15-14":   {2000, 470, 1000, 228, 1000, 4700, 3420},
	"appdual/costsplit-14-14":   {2000, 475, 1000, 231, 1000, 4750, 3440},
	"appdual/costsplit-13-15":   {2000, 470, 1000, 235, 1000, 4700, 3350},
	"smt/round-robin":           {7653, 45525, 7927, 0, 12350, 9728, 12353, 9813},
	"smt/gated":                 {7320, 43547, 7596, 22986, 11517, 9076, 12446, 9279},
	"hybrid":                    {2000, 461, 431, 474, 484},
	"reverser":                  {2000, 484, 484, 0, 0, 0},
	"reverser/thr0.3":           {2000, 484, 887, 1163, 380, 1},
	"gating":                    {2000, 484, 6537, 7534, 0, 2000, 484, 6537, 7534, 0, 2000, 484, 3, 11, 14057, 2000, 484, 3, 0, 14068},
}

// TestModelGoldenCounts pins every cycle model's count vector on a fixed
// trace. Cached model records carry no hash of the model code: a model
// whose counts change must also change modelVersion, or a warm store would
// keep serving the old counts. So a mismatch here is a reminder, not just
// a failure.
func TestModelGoldenCounts(t *testing.T) {
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Config{Branches: goldenBranches})
	var got strings.Builder
	for _, m := range goldenModels() {
		counts, err := m.run(s, spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		fmt.Fprintf(&got, "\t%q: {%s},\n", m.name, strings.Trim(strings.Join(strings.Fields(fmt.Sprint(counts)), ", "), "[]"))
		if want, ok := modelGolden[m.name]; !ok || !reflect.DeepEqual(counts, want) {
			t.Errorf("model %s counts %v, golden %v: a model's semantics changed. If that is intended, bump modelVersion in modelcache.go (so no store serves the old counts) and update modelGolden", m.name, counts, want)
		}
	}
	if t.Failed() {
		t.Logf("current vectors:\n%s", got.String())
	}
}

// TestModelLiveFeedMatchesLanes: a segmented session feeds the machines
// live (it holds no whole-trace lanes); every model must produce the same
// counts as from the engine's lanes.
func TestModelLiveFeedMatchesLanes(t *testing.T) {
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	lanes := NewSession(Config{Branches: goldenBranches})
	live := NewSession(Config{Branches: goldenBranches, SegmentBranches: 512})
	for _, m := range goldenModels() {
		want, err := m.run(lanes, spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		got, err := m.run(live, spec)
		if err != nil {
			t.Fatalf("%s live: %v", m.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: live feed %v, lanes %v", m.name, got, want)
		}
	}
	// baseline likewise: a suite pass there, the annotated streams here.
	for _, name := range []string{"gshare-4K", "tournament-64K"} {
		want, err := lanes.compositeMissRate(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := live.compositeMissRate(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("baseline %s: segmented %v, lanes %v", name, got, want)
		}
	}
}

// TestWarmSessionWalksNoPredictor: re-running the model experiments and
// baseline on a warm session walks no predictor and builds no model
// vector — every lane and every count comes from a memo.
func TestWarmSessionWalksNoPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six experiments twice")
	}
	sim.AnnotatedTier.Reset()
	sim.BucketTier.Reset()
	ModelTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer sim.BucketTier.Reset()
	defer ModelTier.Reset()
	defer workload.TraceTier.Reset()

	ids := []string{"pipeline", "dualpath-ipc", "apps", "gating", "ablation-costsplit", "baseline"}
	s := NewSession(Config{Branches: 3000})
	run := func() map[string]string {
		out := map[string]string{}
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			o, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = o.Text
		}
		return out
	}
	cold := run()
	ann, buckets, models := sim.AnnotatedTier.Stats(), sim.BucketTier.Stats(), ModelTier.Stats()
	if models.Misses == 0 {
		t.Fatal("cold run built no model vectors")
	}
	warm := run()
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm rerun renders differently")
	}
	if got := sim.AnnotatedTier.Stats().Misses; got != ann.Misses {
		t.Errorf("warm rerun walked predictors: annotated-stream misses %d -> %d", ann.Misses, got)
	}
	if got := sim.BucketTier.Stats().Misses; got != buckets.Misses {
		t.Errorf("warm rerun walked tables: bucket-stream misses %d -> %d", buckets.Misses, got)
	}
	if got := ModelTier.Stats().Misses; got != models.Misses {
		t.Errorf("warm rerun built model vectors: model misses %d -> %d", models.Misses, got)
	}
}
