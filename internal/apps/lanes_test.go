package apps

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
)

// scripted is a predictor whose i-th prediction misses exactly when
// miss[i] is set, so the oracles can be driven by arbitrary lanes.
type scripted struct {
	miss []bool
	i    int
}

func (s *scripted) Predict(r trace.Record) bool { return r.Taken != s.miss[s.i] }
func (s *scripted) Update(trace.Record)         { s.i++ }
func (s *scripted) Reset()                      { s.i = 0 }
func (s *scripted) Name() string                { return "scripted" }

// scriptedMech puts the i-th branch in bucket 0 exactly when low[i] is
// set (bucket 1 otherwise); with a threshold-1 counter reducer it is an
// estimator reporting those branches low confidence.
type scriptedMech struct {
	low []bool
	i   int
}

func (m *scriptedMech) Bucket(trace.Record) uint64 {
	if m.low[m.i] {
		return 0
	}
	return 1
}
func (m *scriptedMech) Update(trace.Record, bool) { m.i++ }
func (m *scriptedMech) Reset()                    { m.i = 0 }
func (m *scriptedMech) Name() string              { return "scripted" }

// laneCase is one trace with its miss and low lanes.
type laneCase struct {
	name      string
	recs      trace.Trace
	miss, low []bool
}

func pack(bits []bool) []uint64 {
	out := make([]uint64, (len(bits)+63)/64)
	for i, b := range bits {
		if b {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return out
}

func (c laneCase) lanes() *pipeline.Lanes {
	return pipeline.NewLanes(c.recs, pack(c.miss), pack(c.low))
}
func (c laneCase) pred() *scripted { return &scripted{miss: c.miss} }
func (c laneCase) est() *core.Estimator {
	return core.NewEstimator(&scriptedMech{low: c.low}, core.CounterReducer{Threshold: 1})
}

// laneCases: empty and single-branch traces, gap-0 and long-gap traces,
// all-low and all-miss lanes, and random mixes.
func laneCases() []laneCase {
	rng := rand.New(rand.NewSource(11))
	mk := func(name string, n int, maxGap int, miss, low func() bool) laneCase {
		c := laneCase{name: name, recs: make(trace.Trace, n), miss: make([]bool, n), low: make([]bool, n)}
		for i := range c.recs {
			c.recs[i] = trace.Record{PC: uint64(0x2000 + 4*(i%61)), Taken: rng.Intn(2) == 0, Gap: uint32(rng.Intn(maxGap + 1))}
			c.miss[i], c.low[i] = miss(), low()
		}
		return c
	}
	never := func() bool { return false }
	always := func() bool { return true }
	chance := func(p float64) func() bool { return func() bool { return rng.Float64() < p } }
	cases := []laneCase{
		mk("empty", 0, 3, never, never),
		mk("one-branch", 1, 3, always, always),
		mk("gap0", 300, 0, chance(0.2), chance(0.3)),
		mk("long-gaps", 300, 60, chance(0.15), chance(0.25)),
		mk("all-low", 300, 8, chance(0.1), always),
		mk("all-miss", 300, 8, always, chance(0.4)),
		mk("clean", 200, 8, never, never),
	}
	for k := 0; k < 10; k++ {
		cases = append(cases, mk(fmt.Sprintf("random%d", k), 100+rng.Intn(600), []int{0, 4, 20}[k%3], chance(rng.Float64()*0.4), chance(rng.Float64()*0.6)))
	}
	return cases
}

// TestDualPathLanesMatchOracle: the lane-fed dual-path model equals the
// pre-lane model across thread counts, resolve distances and penalties.
func TestDualPathLanesMatchOracle(t *testing.T) {
	for _, c := range laneCases() {
		for _, threads := range []int{1, 2, 3, 5} {
			for _, resolve := range []int{0, 1, 2, 4, 9} {
				cfg := DualPathConfig{MispredictPenalty: 10, ForkPenalty: 1 + uint64(resolve%3), MaxThreads: threads, ResolveDistance: resolve}
				want, err := oracleRunDualPath(c.recs.Source(), c.pred(), c.est(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunDualPathLanes(c.lanes(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				live, err := RunDualPath(c.recs.Source(), c.pred(), c.est(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || live != want {
					t.Fatalf("%s %+v: lanes %+v, live %+v, oracle %+v", c.name, cfg, got, live, want)
				}
			}
		}
	}
}

// TestGatingLanesMatchOracle: every gate configuration of a batch equals
// both pre-lane models, solo and batched, across resolve distances and
// thresholds.
func TestGatingLanesMatchOracle(t *testing.T) {
	batches := [][]GateConfig{
		{{ResolveDistance: 4, Threshold: 0}, {ResolveDistance: 4, Threshold: 4}, {ResolveDistance: 4, Threshold: 2}, {ResolveDistance: 4, Threshold: 1}},
		{{ResolveDistance: 1, Threshold: 1}, {ResolveDistance: 2, Threshold: 1}, {ResolveDistance: 7, Threshold: 3}},
		{{ResolveDistance: 3, Threshold: 5}},
	}
	for _, c := range laneCases() {
		for _, cfgs := range batches {
			want, err := oracleRunGatingBatch(c.recs.Source(), c.pred(), c.est(), cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunGatingLanes(c.lanes(), cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: lanes %+v, oracle %+v", c.name, cfgs, got, want)
			}
			for i, cfg := range cfgs {
				solo, err := oracleRunGating(c.recs.Source(), c.pred(), c.est(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				live, err := RunGating(c.recs.Source(), c.pred(), c.est(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if solo != want[i] || live != want[i] {
					t.Fatalf("%s %+v: solo oracle %+v, live %+v, batched %+v", c.name, cfg, solo, live, want[i])
				}
			}
		}
	}
}

// TestSMTLanesMatchOracle: the lane-fed SMT model equals the pre-lane
// model across thread counts, resolve windows, policies and slot caps,
// including threads whose trace is empty.
func TestSMTLanesMatchOracle(t *testing.T) {
	cases := laneCases()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		mix := make([]laneCase, n)
		for i := range mix {
			mix[i] = cases[rng.Intn(len(cases))]
		}
		for _, gated := range []bool{false, true} {
			cfg := SMTConfig{ResolveSlots: 1 + rng.Intn(8), Gated: gated}
			maxSlots := []uint64{0, 5, 50, 100000}[trial%4]
			oracleThreads := make([]*oracleSMTThread, n)
			lanes := make([]*pipeline.Lanes, n)
			liveThreads := make([]*SMTThread, n)
			for i, c := range mix {
				oracleThreads[i] = &oracleSMTThread{Src: c.recs.Source(), Pred: c.pred(), Est: c.est()}
				lanes[i] = c.lanes()
				liveThreads[i] = &SMTThread{Src: c.recs.Source(), Pred: c.pred(), Est: c.est()}
			}
			want, err := oracleRunSMT(oracleThreads, cfg, maxSlots)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSMTLanes(lanes, cfg, maxSlots)
			if err != nil {
				t.Fatal(err)
			}
			live, err := RunSMT(liveThreads, cfg, maxSlots)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(live, want) {
				t.Fatalf("trial %d %+v cap %d: lanes %+v, live %+v, oracle %+v", trial, cfg, maxSlots, got, live, want)
			}
		}
	}
}

// TestHybridLanesMatchOracle: the hybrid comparison computed from lanes —
// each component's miss bits and table buckets, the tournament's miss
// bits — equals the pre-lane lockstep replay, live and from lanes.
func TestHybridLanesMatchOracle(t *testing.T) {
	newA := func() predictor.Predictor { return predictor.NewBimodal(10) }
	newB := func() predictor.Predictor { return predictor.NewGshare(10, 10) }
	for _, name := range []string{"groff", "real_gcc", "sdet"} {
		for _, chooser := range []uint{8, 10} {
			want, err := oracleCompareHybrids(benchSource(t, name, 6000), newA, newB, chooser)
			if err != nil {
				t.Fatal(err)
			}
			live, err := CompareHybrids(benchSource(t, name, 6000), newA, newB, chooser)
			if err != nil {
				t.Fatal(err)
			}
			// Lanes the way the engine holds them: one walk per structure.
			var missA, missB, missTour []bool
			var bucketA, bucketB []uint64
			a, b, tour := newA(), newB(), predictor.NewTournament(newA(), newB(), chooser)
			estA, estB := core.SmallResetting(12), core.SmallResetting(12)
			src := benchSource(t, name, 6000)
			for {
				r, err := src.Next()
				if err != nil {
					break
				}
				ma, mb := a.Predict(r) != r.Taken, b.Predict(r) != r.Taken
				missA, missB = append(missA, ma), append(missB, mb)
				missTour = append(missTour, tour.Predict(r) != r.Taken)
				bucketA, bucketB = append(bucketA, estA.BucketUpdate(r, ma)), append(bucketB, estB.BucketUpdate(r, mb))
				a.Update(r)
				b.Update(r)
				tour.Update(r)
			}
			got := CompareHybridLanes(HybridLanes{
				N: len(missA), MissA: pack(missA), MissB: pack(missB), MissTour: pack(missTour),
				BucketA: func(i int) uint64 { return bucketA[i] },
				BucketB: func(i int) uint64 { return bucketB[i] },
			})
			if got != want || live != want {
				t.Fatalf("%s chooser %d: lanes %+v, live %+v, oracle %+v", name, chooser, got, live, want)
			}
		}
	}
}

// TestReverserHistogramMatchesOracle: evaluating a reversal set from the
// histogram equals the per-branch pre-lane evaluation, for profiled sets
// at several thresholds and for arbitrary sets (duplicates and buckets
// that never occur included).
func TestReverserHistogramMatchesOracle(t *testing.T) {
	newPred := func() predictor.Predictor { return predictor.Gshare4K() }
	newMech := func() core.Mechanism { return core.SmallResetting(12) }
	for _, name := range []string{"groff", "real_gcc"} {
		for _, thr := range []float64{0.2, 0.35, 0.55} {
			want, wantSet, err := oracleReverserStudy(benchSource(t, name, 8000), benchSource(t, name, 8000), newPred, newMech, thr)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSet, err := ReverserStudy(benchSource(t, name, 8000), benchSource(t, name, 8000), newPred, newMech, thr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gotSet != wantSet {
				t.Fatalf("%s thr %v: %+v (set %d), oracle %+v (set %d)", name, thr, got, gotSet, want, wantSet)
			}
		}
		for _, set := range [][]uint64{nil, {0}, {0, 0, 3}, {1, 2, 99}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}} {
			want, err := oracleRunReverser(benchSource(t, name, 8000), newPred(), newMech(), set)
			if err != nil {
				t.Fatal(err)
			}
			tm := make(analysis.TallyMap)
			p, m := newPred(), newMech()
			src := benchSource(t, name, 8000)
			for {
				r, err := src.Next()
				if err != nil {
					break
				}
				miss := p.Predict(r) != r.Taken
				tm.Add(m.Bucket(r), miss)
				p.Update(r)
				m.Update(r, miss)
			}
			if got := EvalReverser(tm.Stats(), set); got != want {
				t.Fatalf("%s set %v: histogram %+v, oracle %+v", name, set, got, want)
			}
		}
	}
}
