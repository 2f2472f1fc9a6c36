package exp

import (
	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// The session engine is the single-pass heart of the experiment registry.
// Experiments no longer run private suite sweeps; they declare the
// (predictor, mechanism-set) pairs they need against a shared Session,
// which
//
//   - replays benchmarks from the process-wide materialized-trace cache
//     (workload.Materialize) instead of regenerating the synthetic walk,
//   - routes suite passes through the suite engine (sim.RunSuiteAnnotated):
//     the predictor walks each benchmark once per predictor config —
//     memoized process-wide as a compact annotated stream — and mechanisms
//     train by replaying the stream with no predictor in the loop, or, under
//     Config.SegmentBranches, by the segmented streaming form of the same
//     engine, and
//   - memoizes every (predictor, mechanism) suite pass, so experiments
//     sharing a configuration — concurrent or sequential — reuse results
//     instead of resimulating.
//
// All sharing is exact: the engine's results equal the straight-line
// sim.Run over each benchmark's streaming walk (internal/sim's
// TestSuiteMatchesRunOracle), and result derivation is pinned by
// determinism_test.go, so a report produced through a shared Session is
// byte-identical to one produced by isolated per-experiment runs.

// PredSpec names a predictor configuration and how to build fresh
// instances of it. Key must be unique per configuration; Pred derives it
// from the instance's Name().
type PredSpec struct {
	Key string
	New func() predictor.Predictor
}

// Pred builds a PredSpec keyed by the constructor's instance name.
func Pred(new func() predictor.Predictor) PredSpec {
	return PredSpec{Key: new().Name(), New: new}
}

// MechSpec names a confidence-mechanism configuration and how to build
// fresh instances of it.
type MechSpec struct {
	Key string
	New func() core.Mechanism
}

// Mech builds a MechSpec keyed by the constructor's instance name.
func Mech(new func() core.Mechanism) MechSpec {
	return MechSpec{Key: new().Name(), New: new}
}

// passKey is what a suite pass is a pure function of: the budget, the
// segment size and the predictor and mechanism configurations. The trace
// file is not part of it, because no suite pass reads one.
type passKey struct {
	branches, segment uint64
	pred, mech        string
}

// Session is one run configuration over a pass cache: the memory-only
// "session-pass" tier, which memoizes every (predictor, mechanism) suite
// pass. Experiments sharing a pass, concurrently or one after another,
// reuse it instead of resimulating. NewSession gives a session its own
// cache; With derives a session for another configuration over the same
// cache, which is how a resident daemon shares passes across requests.
// Pass keys carry the configuration a pass depends on, so sessions over
// one cache share exactly the passes that are equal. A Session is safe for
// concurrent use.
type Session struct {
	cfg    Config
	passes *memo.Tier[passKey, sim.SuiteResult]
}

// NewSession returns a session for the given configuration with an empty,
// unbounded pass cache of its own.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg, passes: &memo.Tier[passKey, sim.SuiteResult]{Name: "session-pass", Size: passBytes}}
}

// With returns a session for cfg that shares s's pass cache.
func (s *Session) With(cfg Config) *Session {
	return &Session{cfg: cfg, passes: s.passes}
}

// Config returns the session's run configuration.
func (s *Session) Config() Config { return s.cfg }

// Branches resolves the per-benchmark branch budget (the suite default
// when the config leaves it zero).
func (s *Session) Branches() uint64 {
	if s.cfg.Branches == 0 {
		return workload.DefaultBranches
	}
	return s.cfg.Branches
}

// Source returns a cursor over spec's trace at the session budget. In a
// monolithic session it replays the materialized trace: repeated calls
// (and concurrent experiments) share one cached buffer, and each cursor
// replays from the beginning. A segmented session streams from the
// generator instead, so it never holds a whole trace in memory.
func (s *Session) Source(spec workload.Spec) (trace.Source, error) {
	if s.cfg.SegmentBranches > 0 {
		return spec.FiniteSource(s.cfg.Branches)
	}
	buf, err := workload.Materialize(spec, s.cfg.Branches)
	if err != nil {
		return nil, err
	}
	return buf.Source(), nil
}

// suiteConfig is the session's whole-suite run configuration. Monolithic
// passes replay the process-wide materialized-trace cache; under
// Config.SegmentBranches benchmarks stream straight from their generators,
// so a long-horizon run never holds a whole trace in memory.
func (s *Session) suiteConfig() sim.SuiteConfig {
	return sim.SuiteConfig{Branches: s.cfg.Branches, SegmentBranches: s.cfg.SegmentBranches}
}

// Suite returns one whole-suite result per mechanism, all simulated under
// pred, batching every mechanism not already cached into a single
// predictor pass per benchmark. Results are index-aligned with mechs and
// identical to per-mechanism sim.RunSuiteAnnotated calls.
//
// Concurrent callers requesting overlapping sets never duplicate a pass,
// whether they run in one report or in distinct requests over one cache:
// the first claimant of a pass simulates it, later ones wait for it. A
// pass whose simulation fails reaches everyone waiting on it as an error
// but is not cached, so the next claimant retries it.
func (s *Session) Suite(pred PredSpec, mechs ...MechSpec) ([]sim.SuiteResult, error) {
	keys := make([]passKey, len(mechs))
	for i, m := range mechs {
		keys[i] = passKey{branches: s.cfg.Branches, segment: s.cfg.SegmentBranches, pred: pred.Key, mech: m.Key}
	}
	return s.passes.GetMany(keys, nil, func(missing []int) ([]sim.SuiteResult, error) {
		newMechs := make([]func() core.Mechanism, len(missing))
		for j, i := range missing {
			newMechs[j] = mechs[i].New
		}
		res, err := sim.RunSuiteAnnotated(s.suiteConfig(), pred.Key, pred.New, newMechs)
		if err != nil {
			return nil, err
		}
		// The passes' tallies are immutable from here on, so each run's
		// digest (the curve tier's key) is hashed at most once.
		for j := range res {
			res[j].MemoizeDigests()
		}
		return res, nil
	})
}

// passBytes approximates a cached pass's resident footprint for the LRU
// bound: the per-benchmark run headers plus each bucket tally (map slot,
// key, and tally block).
func passBytes(res sim.SuiteResult) uint64 {
	const runHeader = 64  // Result struct + slice slot + name
	const bucketCost = 48 // map bucket share + uint64 key + *Tally + Tally
	b := uint64(32)
	for _, r := range res.Runs {
		b += runHeader + uint64(len(r.Buckets))*bucketCost
	}
	return b
}

// SetPassBound bounds the pass cache's resident bytes; completed passes
// are evicted least-recently-used first (0 = unbounded, the default). A
// resident process sets this so an unbounded request mix cannot grow the
// cache without limit.
func (s *Session) SetPassBound(bytes uint64) { s.passes.SetBound(bytes) }

// ReleasePasses drops every resident pass, keeping the cache's counters
// and bound: a resident process's relief under memory pressure.
func (s *Session) ReleasePasses() { s.passes.Release() }

// SuiteOne is Suite for a single mechanism.
func (s *Session) SuiteOne(pred PredSpec, mech MechSpec) (sim.SuiteResult, error) {
	rs, err := s.Suite(pred, mech)
	if err != nil {
		return sim.SuiteResult{}, err
	}
	return rs[0], nil
}

// Stats reports the pass cache's hits and misses so far, counted over
// every session that shares it.
func (s *Session) Stats() (hits, misses uint64) {
	st := s.PassStats()
	return st.Hits, st.Misses
}

// PassStats is the pass cache's whole "session-pass" row: hits and misses
// counted over every session that shares it, and the cache's evictions
// and resident bytes.
func (s *Session) PassStats() artifact.TierStats { return s.passes.Stats() }

// Shared predictor and mechanism specs for the paper's two standard
// predictors and the recurring mechanisms. Every spec an experiment uses
// is built once per process, at package initialization: Mech builds a
// whole mechanism to learn its key (a 64 KiB table for a paper-sized
// counter table), which a warm request would otherwise pay for on every
// run only to look up a cached pass.
var (
	predGshare64K = Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	predGshare4K  = Pred(func() predictor.Predictor { return predictor.Gshare4K() })

	mechStatic    = Mech(func() core.Mechanism { return core.NewStaticProfile() })
	mechResetting = Mech(func() core.Mechanism { return core.PaperResetting() })

	// mechStrength is the predictor-coupled counter-strength mechanism: it
	// reads the predictor's pre-update counter state from the walk, so it
	// batches into shared passes like any independent mechanism.
	mechStrength = Mech(func() core.Mechanism { return core.NewCounterStrength() })

	// allIndexSchemes lists every index scheme in value order, so
	// mechOneLevels[scheme] is scheme's paper one-level mechanism.
	allIndexSchemes = []core.IndexScheme{
		core.IndexPC, core.IndexBHR, core.IndexPCxorBHR,
		core.IndexGCIR, core.IndexPCxorGCIR, core.IndexPCconcatBHR,
	}
	mechOneLevels = mechsFor(allIndexSchemes, func(scheme core.IndexScheme) core.Mechanism {
		return core.PaperOneLevel(scheme)
	})

	// allSecondIndices lists every second-level index in value order, so
	// mechTwoLevels[s1][s2] is the two-level mechanism over s1 and s2.
	allSecondIndices = []core.SecondIndex{core.L2CIR, core.L2CIRxorPC, core.L2CIRxorBHR, core.L2CIRxorPCxorBHR}
	mechTwoLevels    = func() [][]MechSpec {
		out := make([][]MechSpec, len(allIndexSchemes))
		for i, s1 := range allIndexSchemes {
			out[i] = mechsFor(allSecondIndices, func(s2 core.SecondIndex) core.Mechanism {
				return core.NewTwoLevel(core.TwoLevelConfig{Scheme1: s1, Scheme2: s2})
			})
		}
		return out
	}()
)

// mechsFor builds one spec per parameter, index-aligned with params. Call
// it in a package-level declaration, so each spec is built once.
func mechsFor[T any](params []T, new func(T) core.Mechanism) []MechSpec {
	specs := make([]MechSpec, len(params))
	for i, p := range params {
		specs[i] = Mech(func() core.Mechanism { return new(p) })
	}
	return specs
}

// mechOneLevel is the paper one-level CIR mechanism for a given index
// scheme.
func mechOneLevel(scheme core.IndexScheme) MechSpec { return mechOneLevels[scheme] }

// mechTwoLevel is a two-level mechanism variant.
func mechTwoLevel(s1 core.IndexScheme, s2 core.SecondIndex) MechSpec {
	return mechTwoLevels[s1][s2]
}
