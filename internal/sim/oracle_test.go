package sim

import (
	"fmt"
	"reflect"
	"syscall"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/faultfs"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// The differential oracle: every suite engine result must equal, integer
// for integer, what the straight-line Run produces when each (benchmark,
// mechanism) pair walks the benchmark's own streaming source through a
// fresh predictor. Run is the paper's per-branch protocol with no caching,
// batching, annotation, factoring, segmenting or parallelism, so a bug in
// any of those layers shows up as a divergence here even when every engine
// shares it.

// oracleMech is one mechanism under test. engine builds the instance the
// suite engine receives. live, when set, builds the form the oracle runs
// instead, bound to the oracle's own predictor: a state-coupled mechanism
// reads the predictor it is bound to, and only the oracle has one.
type oracleMech struct {
	engine func() core.Mechanism
	live   func(predictor.Predictor) core.Mechanism
}

// oracleMechs is the mechanism set for one predictor: the paper's counter
// tables (both sizes), a one-level and a two-level CIR table, the static
// profile, and the state-coupled mechanism the predictor supports, if any.
func oracleMechs(predName string) []oracleMech {
	ms := []oracleMech{
		{engine: func() core.Mechanism { return core.PaperResetting() }},
		{engine: func() core.Mechanism { return core.SmallResetting(12) }},
		{engine: func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) }},
		{engine: func() core.Mechanism { return core.PaperTwoLevels()[0] }},
		{engine: func() core.Mechanism { return core.NewStaticProfile() }},
	}
	switch oraclePred(predName)().(type) {
	case *predictor.Gshare:
		ms = append(ms, oracleMech{
			engine: func() core.Mechanism { return core.NewAnnotatedStrength() },
			live: func(p predictor.Predictor) core.Mechanism {
				return core.NewCounterStrength(p.(*predictor.Gshare))
			},
		})
	case *predictor.Tage, *predictor.Perceptron:
		ms = append(ms, oracleMech{
			engine: func() core.Mechanism { return core.NewAnnotatedConfidence() },
			live: func(p predictor.Predictor) core.Mechanism {
				return core.NewNativeConfidence(p.(core.Confidencer))
			},
		})
	}
	return ms
}

// oraclePred returns a constructor for the named registry predictor.
func oraclePred(name string) func() predictor.Predictor {
	return func() predictor.Predictor {
		p, err := predictor.Build(name)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// oracleSuite runs every (spec, mechanism) pair through a fresh predictor
// with Run over spec.FiniteSource(budget), shaped like a suite engine's
// result: one SuiteResult per mechanism, runs in spec order.
func oracleSuite(t testing.TB, specs []workload.Spec, budget uint64, predName string, mechs []oracleMech) []SuiteResult {
	t.Helper()
	out := make([]SuiteResult, len(mechs))
	for j, m := range mechs {
		out[j].Runs = make([]Result, len(specs))
		for i, spec := range specs {
			src, err := spec.FiniteSource(budget)
			if err != nil {
				t.Fatal(err)
			}
			pred := oraclePred(predName)()
			mech := m.engine()
			if m.live != nil {
				mech = m.live(pred)
			}
			r, err := Run(src, pred, mech)
			if err != nil {
				t.Fatalf("oracle %s/%s: %v", predName, spec.Name, err)
			}
			r.Benchmark = spec.Name
			out[j].Runs[i] = r
		}
	}
	return out
}

// oracleStore is the artifact-store dimension of an oracle case.
type oracleStore uint8

const (
	storeNone  oracleStore = iota
	storeCold              // a fresh temp store
	storeWarm              // the previous cold case's store, memory tiers reset
	storeFault             // a fresh store under a seeded faultfs storm, run cold then warm
)

func (s oracleStore) String() string {
	return [...]string{"none", "cold", "warm", "fault"}[s]
}

// oracleCase is one engine configuration checked against the oracle.
type oracleCase struct {
	seg      uint64 // SegmentBranches; 0 = monolithic
	parallel int
	store    oracleStore
	seed     int64 // storm seed for storeFault
}

func (c oracleCase) String() string {
	return fmt.Sprintf("seg=%d/par=%d/store=%s", c.seg, c.parallel, c.store)
}

// resetMemoryTiers drops every in-memory engine tier, so the next run
// reads the store (or builds) instead of reusing resident results.
func resetMemoryTiers() {
	AnnotatedTier.Reset()
	BucketTier.Reset()
	workload.TraceTier.Reset()
}

// openOracleStore opens a store on dir (through fsys when non-nil) and
// installs it as the process default until the test ends.
func openOracleStore(t testing.TB, dir string, fsys artifact.FS) *artifact.Store {
	t.Helper()
	s, err := artifact.OpenStore(dir, artifact.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	artifact.SetDefault(s)
	t.Cleanup(func() { artifact.SetDefault(nil) })
	return s
}

// checkOracleCase runs the suite engine under c and requires it to equal
// want. coldDir carries the last cold store's directory to the warm case
// that follows it.
func checkOracleCase(t testing.TB, c oracleCase, specs []workload.Spec, budget uint64, predName string, mechs []oracleMech, want []SuiteResult, coldDir *string) {
	t.Helper()
	newMechs := make([]func() core.Mechanism, len(mechs))
	for j, m := range mechs {
		newMechs[j] = m.engine
	}
	cfg := SuiteConfig{Branches: budget, Specs: specs, SegmentBranches: c.seg}
	SetParallelism(c.parallel)
	run := func(leg string) {
		t.Helper()
		got, err := RunSuiteAnnotated(cfg, predName, oraclePred(predName), newMechs)
		if err != nil {
			t.Fatalf("%s %v %s: %v", predName, c, leg, err)
		}
		if reflect.DeepEqual(got, want) {
			return
		}
		for j := range want {
			for i := range want[j].Runs {
				if j >= len(got) || i >= len(got[j].Runs) || !reflect.DeepEqual(got[j].Runs[i], want[j].Runs[i]) {
					t.Fatalf("%s %v %s: mechanism %s on %s diverges from the Run oracle",
						predName, c, leg, mechs[j].engine().Name(), specs[i].Name)
				}
			}
		}
		t.Fatalf("%s %v %s: suite result shape diverges from the Run oracle", predName, c, leg)
	}

	switch c.store {
	case storeNone:
		artifact.SetDefault(nil)
		run("")
	case storeCold:
		*coldDir = t.TempDir()
		openOracleStore(t, *coldDir, nil)
		resetMemoryTiers()
		run("cold")
	case storeWarm:
		if *coldDir == "" {
			t.Fatalf("%v: a warm case must follow a cold one", c)
		}
		s := openOracleStore(t, *coldDir, nil)
		resetMemoryTiers()
		run("warm")
		if s.Stats().Hits == 0 {
			t.Fatalf("%s %v: the warm run read nothing from the store", predName, c)
		}
	case storeFault:
		ffs := faultfs.New(artifact.OSFS())
		ffs.SeedRandom(c.seed, 0.3, syscall.EIO, syscall.ENOSPC, syscall.EACCES)
		openOracleStore(t, t.TempDir(), ffs)
		resetMemoryTiers()
		run("storm-cold")
		resetMemoryTiers()
		run("storm-warm")
	}
	artifact.SetDefault(nil)
}

// TestSuiteMatchesRunOracle checks RunSuiteAnnotated against the Run
// oracle for every registry predictor, across segment sizes, parallelism
// and store states. The cases cover every value of each dimension, not
// their full cross product; warm cases reuse the preceding cold case's
// store. Segment size 1 — a checkpointed resume at every branch — runs on
// two predictors at a small budget, because it costs one segment per
// branch.
func TestSuiteMatchesRunOracle(t *testing.T) {
	resetEngineCaches(t)
	defer SetParallelism(0)
	t.Cleanup(func() { artifact.SetDefault(nil) })

	const budget = 2000
	specs := workload.Suite()[:3]
	cases := []oracleCase{
		{seg: 0, parallel: 1},
		{seg: 777, parallel: 2},
		{seg: budget + 1, parallel: 8},
		{seg: 0, parallel: 2, store: storeCold},
		{seg: 0, parallel: 8, store: storeWarm},
		{seg: 777, parallel: 8, store: storeCold},
		{seg: 777, parallel: 1, store: storeWarm},
		{seg: budget + 1, parallel: 1, store: storeFault, seed: 1},
		{seg: 0, parallel: 2, store: storeFault, seed: 2},
		{seg: 777, parallel: 8, store: storeFault, seed: 3},
	}
	for _, name := range predictor.Names() {
		t.Run(name, func(t *testing.T) {
			mechs := oracleMechs(name)
			want := oracleSuite(t, specs, budget, name, mechs)
			var coldDir string
			for _, c := range cases {
				checkOracleCase(t, c, specs, budget, name, mechs, want, &coldDir)
			}
		})
	}

	// With a store, segment size 1 writes a segment record and a
	// checkpoint per geometry for every branch, so its store legs walk one
	// benchmark at a smaller budget still.
	const smallBudget, storeBudget = 200, 64
	for _, name := range []string{"gshare-64K", "tage"} {
		t.Run(name+"/seg=1", func(t *testing.T) {
			mechs := oracleMechs(name)
			want := oracleSuite(t, specs, smallBudget, name, mechs)
			var coldDir string
			checkOracleCase(t, oracleCase{seg: 1, parallel: 2}, specs, smallBudget, name, mechs, want, &coldDir)
			one := specs[:1]
			want = oracleSuite(t, one, storeBudget, name, mechs)
			for _, c := range []oracleCase{
				{seg: 1, parallel: 1, store: storeCold},
				{seg: 1, parallel: 2, store: storeWarm},
			} {
				checkOracleCase(t, c, one, storeBudget, name, mechs, want, &coldDir)
			}
		})
	}
}

// FuzzSuiteMatchesRun draws the oracle's dimensions from its input:
// predictor, mechanism subset, budget (1–4,000), segment size,
// parallelism (1–4) and store state with its storm seed. Segment sizes are
// floored so a benchmark splits into at most 64 segments, which keeps
// every input cheap; segment size 1 is reachable at budgets up to 64.
func FuzzSuiteMatchesRun(f *testing.F) {
	// predictor index, mechanism mask, budget, segment, parallelism, store, seed
	f.Add(uint8(0), uint8(0xff), uint16(500), uint16(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(1), uint8(0x03), uint16(1), uint16(0), uint8(1), uint8(0), int64(0))
	f.Add(uint8(5), uint8(0x3f), uint16(999), uint16(333), uint8(2), uint8(0), int64(0))
	f.Add(uint8(6), uint8(0x21), uint16(63), uint16(1), uint8(3), uint8(1), int64(0))
	f.Add(uint8(8), uint8(0x3f), uint16(1500), uint16(0), uint8(1), uint8(2), int64(0))
	f.Add(uint8(11), uint8(0x28), uint16(800), uint16(801), uint8(0), uint8(2), int64(0))
	f.Add(uint8(13), uint8(0x3f), uint16(700), uint16(100), uint8(2), uint8(3), int64(7))
	f.Add(uint8(14), uint8(0x10), uint16(3999), uint16(4000), uint8(3), uint8(3), int64(42))
	f.Add(uint8(4), uint8(0x24), uint16(2000), uint16(65535), uint8(1), uint8(1), int64(0))
	f.Fuzz(func(t *testing.T, predIdx, mechMask uint8, budgetRaw, segRaw uint16, parRaw, storeRaw uint8, seed int64) {
		resetEngineCaches(t)
		defer SetParallelism(0)

		names := predictor.Names()
		name := names[int(predIdx)%len(names)]
		budget := 1 + uint64(budgetRaw)%4000
		var seg uint64
		if segRaw > 0 {
			seg = max(uint64(segRaw)%(budget+2), (budget+63)/64)
		}
		var mechs []oracleMech
		for j, m := range oracleMechs(name) {
			if mechMask>>j&1 == 1 {
				mechs = append(mechs, m)
			}
		}
		if len(mechs) == 0 {
			mechs = oracleMechs(name)
		}
		c := oracleCase{seg: seg, parallel: 1 + int(parRaw)%4, store: oracleStore(storeRaw % 4), seed: seed}
		specs := workload.Suite()[:2]
		want := oracleSuite(t, specs, budget, name, mechs)
		var coldDir string
		if c.store == storeWarm {
			cold := c
			cold.store = storeCold
			checkOracleCase(t, cold, specs, budget, name, mechs, want, &coldDir)
		}
		checkOracleCase(t, c, specs, budget, name, mechs, want, &coldDir)
	})
}
