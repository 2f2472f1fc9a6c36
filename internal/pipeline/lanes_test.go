package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"branchconf/internal/core"
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

// scriptedSignal reports the i-th branch low confidence exactly when
// low[i] is set.
type scriptedSignal struct {
	low []bool
	i   int
}

func (s *scriptedSignal) Confident(trace.Record) bool { return !s.low[s.i] }
func (s *scriptedSignal) Update(trace.Record, bool)   { s.i++ }

// laneCase is one trace with its miss and low lanes.
type laneCase struct {
	name      string
	recs      trace.Trace
	miss, low []bool
}

// pack packs bools into the lanes' bit layout.
func pack(bits []bool) []uint64 {
	out := make([]uint64, (len(bits)+63)/64)
	for i, b := range bits {
		if b {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return out
}

func (c laneCase) lanes() *Lanes {
	return NewLanes(c.recs, pack(c.miss), pack(c.low))
}

func (c laneCase) pred() *scripted { return &scripted{miss: c.miss} }

func (c laneCase) signal() *scriptedSignal { return &scriptedSignal{low: c.low} }

// laneCases covers the traces the skip-ahead paths care about: empty and
// single-branch traces, back-to-back branches (gap 0), gaps of at least
// twice any tested fetch width, all-low and all-miss lanes, and random
// mixes at several miss and low densities.
func laneCases() []laneCase {
	rng := rand.New(rand.NewSource(7))
	mk := func(name string, n int, gap func(i int) uint32, miss, low func(i int) bool) laneCase {
		c := laneCase{name: name, recs: make(trace.Trace, n), miss: make([]bool, n), low: make([]bool, n)}
		for i := range c.recs {
			c.recs[i] = trace.Record{PC: uint64(0x1000 + 4*(i%97)), Taken: rng.Intn(2) == 0, Gap: gap(i)}
			c.miss[i], c.low[i] = miss(i), low(i)
		}
		return c
	}
	never := func(int) bool { return false }
	always := func(int) bool { return true }
	chance := func(p float64) func(int) bool { return func(int) bool { return rng.Float64() < p } }
	randGap := func(max int) func(int) uint32 { return func(int) uint32 { return uint32(rng.Intn(max + 1)) } }
	cases := []laneCase{
		mk("empty", 0, randGap(4), never, never),
		mk("one-branch", 1, randGap(4), always, always),
		mk("gap0-clean", 300, func(int) uint32 { return 0 }, never, never),
		mk("gap0-mixed", 500, func(int) uint32 { return 0 }, chance(0.2), chance(0.3)),
		mk("long-gaps", 400, func(int) uint32 { return uint32(16 + rng.Intn(40)) }, chance(0.15), chance(0.25)),
		mk("all-low", 400, randGap(12), chance(0.1), always),
		mk("all-miss", 300, randGap(12), always, chance(0.5)),
		mk("all-miss-all-low", 200, randGap(20), always, always),
		mk("clean-long-gaps", 200, func(int) uint32 { return uint32(rng.Intn(3) * 17) }, never, never),
	}
	for k := 0; k < 12; k++ {
		p, q := rng.Float64()*0.4, rng.Float64()*0.6
		cases = append(cases, mk(fmt.Sprintf("random%d", k), 200+rng.Intn(800), randGap([]int{0, 3, 9, 40}[k%4]), chance(p), chance(q)))
	}
	return cases
}

// TestRunLanesMatchesOracle: the lane-fed, cycle-skipping machine produces
// exactly the pre-lane machine's counts across trace shapes and machine
// shapes (fetch width, depth, gate threshold), from whole-trace lanes and
// from a live walk alike.
func TestRunLanesMatchesOracle(t *testing.T) {
	for _, c := range laneCases() {
		for _, width := range []int{1, 2, 3, 4, 8} {
			for _, depth := range []int{1, 2, 5, 8, 13} {
				for _, gate := range []int{0, 1, 2, 4} {
					cfg := Config{FetchWidth: width, Depth: depth, GateThreshold: gate}
					want, err := oracleRun(c.recs.Source(), c.pred(), c.signal(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunLanes(c.lanes(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %+v: lanes %+v, oracle %+v", c.name, cfg, got, want)
					}
					live, err := Run(c.recs.Source(), c.pred(), c.signal(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if live != want {
						t.Fatalf("%s %+v: live %+v, oracle %+v", c.name, cfg, live, want)
					}
				}
			}
		}
	}
}

// TestRunDualPathLanesMatchesOracle is the dual-path machine's twin of
// TestRunLanesMatchesOracle, across fork widths too.
func TestRunDualPathLanesMatchesOracle(t *testing.T) {
	for _, c := range laneCases() {
		for _, width := range []int{2, 3, 4, 8} {
			for _, depth := range []int{1, 2, 5, 12} {
				for fork := 1; fork < width; fork++ {
					cfg := DualPathConfig{FetchWidth: width, Depth: depth, ForkWidth: fork}
					want, err := oracleRunDualPath(c.recs.Source(), c.pred(), c.signal(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunDualPathLanes(c.lanes(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %+v: lanes %+v, oracle %+v", c.name, cfg, got, want)
					}
					live, err := RunDualPath(c.recs.Source(), c.pred(), c.signal(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if live != want {
						t.Fatalf("%s %+v: live %+v, oracle %+v", c.name, cfg, live, want)
					}
				}
			}
		}
	}
}

// TestLiveLanesMatchOracleOnBenchmark: on a real benchmark with a real
// predictor and estimator the live feeder and the oracle agree, including
// the perfect-estimator (Oracle) lanes.
func TestLiveLanesMatchOracleOnBenchmark(t *testing.T) {
	const n = 5000
	for _, gate := range []int{0, 2} {
		cfg := Config{FetchWidth: 4, Depth: 8, GateThreshold: gate}
		want, err := oracleRun(benchSource(t, "real_gcc", n), predictor.Gshare4K(), core.PaperEstimator(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(benchSource(t, "real_gcc", n), predictor.Gshare4K(), core.PaperEstimator(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("gate %d: live %+v, oracle %+v", gate, got, want)
		}
	}
	dcfg := DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1}
	p := predictor.Gshare4K()
	want, err := oracleRunDualPath(benchSource(t, "groff", n), p, oracleFor(p), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDualPathLanes(LiveLanes(benchSource(t, "groff", n), predictor.Gshare4K(), nil).Oracle(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("oracle lanes %+v, oracle estimator %+v", got, want)
	}
}

// TestLiveLanesSurfaceErrorInPlace: a source failure surfaces when the
// machine reaches the failing record, with the counts of everything
// fetched before it, exactly as the oracle reports it.
func TestLiveLanesSurfaceErrorInPlace(t *testing.T) {
	boom := errors.New("trace truncated")
	for _, n := range []int{0, 1, 10, 1027} {
		cfg := Config{FetchWidth: 4, Depth: 8}
		want, werr := oracleRun(&errSource{n: n, err: boom}, predictor.Gshare4K(), nil, cfg)
		got, gerr := Run(&errSource{n: n, err: boom}, predictor.Gshare4K(), nil, cfg)
		if !errors.Is(werr, boom) || !errors.Is(gerr, boom) {
			t.Fatalf("n=%d: errors %v / %v", n, werr, gerr)
		}
		if got.Retired != want.Retired || got.Branches != want.Branches || got.Misses != want.Misses {
			t.Fatalf("n=%d: counts at failure %+v, oracle %+v", n, got, want)
		}
	}
}
