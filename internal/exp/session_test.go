package exp

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// TestSessionConcurrentClaimants exercises the pass cache's claim-then-run
// path under contention: many goroutines request the same (predictor,
// mechanism) pass simultaneously; exactly one must simulate it (counted via
// the constructors) while the rest block on the entry and share the result.
// Run under -race in CI.
func TestSessionConcurrentClaimants(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	var predBuilds, mechBuilds atomic.Int64
	pred := PredSpec{Key: "gshare-64K", New: func() predictor.Predictor {
		predBuilds.Add(1)
		return predictor.Gshare64K()
	}}
	mech := MechSpec{Key: "resetting", New: func() core.Mechanism {
		mechBuilds.Add(1)
		return core.PaperResetting()
	}}

	s := NewSession(Config{Branches: 3456})
	const claimants = 8
	results := make([]sim.SuiteResult, claimants)
	errs := make([]error, claimants)
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = s.SuiteOne(pred, mech)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("claimant %d: %v", g, err)
		}
	}
	for g := 1; g < claimants; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("claimant %d got a different result", g)
		}
	}

	// One pass over the suite, regardless of how many claimants raced: the
	// mechanism is constructed once (its instance is Reset and reused
	// across benchmarks), the predictor once per benchmark (one annotation
	// walk each).
	n := int64(len(workload.Suite()))
	if got := mechBuilds.Load(); got != 1 {
		t.Errorf("mechanism constructor ran %d times, want 1 (reset-and-reuse across benchmarks)", got)
	}
	if got := predBuilds.Load(); got != n {
		t.Errorf("predictor constructor ran %d times, want %d (one annotate per benchmark)", got, n)
	}
	hits, misses := s.Stats()
	if misses != 1 {
		t.Errorf("pass-cache misses = %d, want exactly 1", misses)
	}
	if hits != claimants-1 {
		t.Errorf("pass-cache hits = %d, want %d", hits, claimants-1)
	}
}

// TestSessionCrossRequestSingleFlight exercises the resident daemon's form
// of the pass cache: claimants arrive as distinct "requests", each
// deriving its own session from one root session's cache, rather than
// racing inside one report run. The contract is unchanged: one simulation
// per pass, every request sharing the result, and the cache's stats
// counting each request's claim. A configuration that differs only in the
// trace file shares the passes too, since no suite pass reads one; a
// second budget shares the cache but not the passes. Run under -race in
// CI.
func TestSessionCrossRequestSingleFlight(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	var mechBuilds atomic.Int64
	pred := Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	mech := MechSpec{Key: "resetting", New: func() core.Mechanism {
		mechBuilds.Add(1)
		return core.PaperResetting()
	}}

	root := NewSession(Config{})
	cfg := Config{Branches: 3456}
	const requests = 6
	results := make([]sim.SuiteResult, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for g := 0; g < requests; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each request derives its own session, as the daemon's report
			// handler does.
			results[g], errs[g] = root.With(cfg).SuiteOne(pred, mech)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", g, err)
		}
	}
	for g := 1; g < requests; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("request %d got a different result", g)
		}
	}
	if got := mechBuilds.Load(); got != 1 {
		t.Errorf("mechanism constructor ran %d times across requests, want 1", got)
	}
	if hits, misses := root.Stats(); misses != 1 || hits != requests-1 {
		t.Errorf("pass-cache stats = %d hits, %d misses; want %d, 1", hits, misses, requests-1)
	}

	traced := cfg
	traced.TraceFile = "recorded.champsim"
	if res, err := root.With(traced).SuiteOne(pred, mech); err != nil || !reflect.DeepEqual(res, results[0]) {
		t.Fatalf("a trace file no pass reads changed the pass: err=%v", err)
	}
	// A distinct budget is a distinct pass: its results legitimately
	// differ, so it must be simulated, not shared.
	other, err := root.With(Config{Branches: 1234}).SuiteOne(pred, mech)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, results[0]) {
		t.Fatal("a second budget was served the first budget's pass")
	}
	if got := mechBuilds.Load(); got != 2 {
		t.Errorf("mechanism constructor ran %d times, want 2: one per budget", got)
	}
	if hits, misses := root.Stats(); misses != 2 || hits != requests {
		t.Errorf("pass-cache stats = %d hits, %d misses; want %d, 2", hits, misses, requests)
	}
}

// TestSessionErroredClaimantMidFlight pins the resident-process error
// contract: every claimant of a pass whose simulation fails observes the
// error, and the failure is not negatively cached: once the cause is gone,
// the next claimant simulates the pass and succeeds. The failure is real:
// while failing is set, the mechanism's constructor builds a mechanism
// that reads predictor state the predictor has none of, which the engine
// rejects. The constructor also holds the first simulation in flight until
// released, so claimants arriving meanwhile wait on it. (That waiters
// parked on a failing build see its error is pinned exactly at the tier,
// by internal/memo's TestTierBuildErrorNotCached.)
func TestSessionErroredClaimantMidFlight(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	var failing atomic.Bool
	failing.Store(true)
	entered, release := make(chan struct{}), make(chan struct{})
	var enter sync.Once
	var mechBuilds atomic.Int64
	pred := Pred(func() predictor.Predictor { return predictor.NewBimodal(12) })
	mech := MechSpec{Key: "flaky", New: func() core.Mechanism {
		mechBuilds.Add(1)
		enter.Do(func() { close(entered) })
		<-release
		if failing.Load() {
			return core.NewCounterStrength()
		}
		return core.PaperResetting()
	}}
	s := NewSession(Config{Branches: 3456})

	const claimants = 4
	errs := make([]error, claimants)
	var wg sync.WaitGroup
	for g := 0; g < claimants; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = s.SuiteOne(pred, mech)
		}()
	}
	<-entered
	close(release)
	wg.Wait()
	for g, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "needs predictor state") {
			t.Fatalf("claimant %d: error = %v, want the simulation's failure", g, err)
		}
	}
	hits, misses := s.Stats()
	if hits != 0 || misses != uint64(mechBuilds.Load()) {
		t.Fatalf("pass-cache stats = %d hits, %d misses after %d simulations; want no hits and one miss per simulation", hits, misses, mechBuilds.Load())
	}

	// The error must not be pinned: a later claimant re-owns the pass and
	// the clean run succeeds.
	failing.Store(false)
	res, err := s.SuiteOne(pred, mech)
	if err != nil {
		t.Fatalf("retry after the failure: %v", err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("retry produced an empty result")
	}
}

// TestSessionPassEviction pins the memory bound: under a byte bound the
// pass cache evicts completed passes LRU-first, and an evicted pass is
// re-simulated (a miss) on the next claim rather than served.
func TestSessionPassEviction(t *testing.T) {
	sim.AnnotatedTier.Reset()
	defer sim.AnnotatedTier.Reset()
	defer workload.TraceTier.Reset()

	pred := Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	mech := Mech(func() core.Mechanism { return core.PaperResetting() })
	s := NewSession(Config{Branches: 3456})
	s.SetPassBound(1) // every completed pass exceeds the bound

	if _, err := s.SuiteOne(pred, mech); err != nil {
		t.Fatal(err)
	}
	if st := s.passes.Stats(); st.Evictions == 0 || st.ResidentBytes > 1 {
		t.Fatalf("bound ignored: resident=%d evictions=%d", st.ResidentBytes, st.Evictions)
	}
	if _, err := s.SuiteOne(pred, mech); err != nil {
		t.Fatal(err)
	}
	if _, misses := s.Stats(); misses != 2 {
		t.Fatalf("evicted pass served from cache: misses=%d, want 2", misses)
	}
}
