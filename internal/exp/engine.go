package exp

import (
	"sync/atomic"

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

// passKey distinguishes session pass entries from other key kinds when a
// ByteLRU is shared; the string is pred.Key + "\x1f" + mech.Key.
type passKey string

// Session owns the pass cache for one run configuration. It is safe for
// concurrent use by experiments running in parallel, and — unlike the
// original per-report incarnation — is built to live for the process: the
// pass cache is a memo.ByteLRU, so completed passes can be evicted under a
// resident-bytes bound (SetPassBound) and an errored pass is dropped
// rather than negatively cached, letting a later claimant retry it. A
// resident daemon shares one Session per Config across every request that
// names that configuration (see SessionPool), which is what coalesces
// concurrent identical work onto one computation.
type Session struct {
	cfg Config

	passes memo.ByteLRU

	hits, misses atomic.Uint64
}

// NewSession returns an empty session for the given configuration.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg}
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

// Source returns a replay cursor over spec's materialized trace at the
// session budget. Repeated calls (and concurrent experiments) share one
// cached buffer; each cursor replays from the beginning.
func (s *Session) Source(spec workload.Spec) (trace.Source, error) {
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
// Concurrent callers requesting overlapping sets never duplicate a pass:
// the first claimant of a (predictor, mechanism) key simulates it, later
// ones block on the entry. Claimants may arrive from distinct requests in
// a resident process — the contract is the same. A pass whose simulation
// fails is published as an error to everyone already waiting on it but is
// dropped from the cache, so the next claimant retries instead of
// inheriting a possibly transient failure for the life of the process.
func (s *Session) Suite(pred PredSpec, mechs ...MechSpec) ([]sim.SuiteResult, error) {
	entries := make([]*memo.Entry, len(mechs))
	var missing []int // indices whose entries this call must fill
	for i, m := range mechs {
		e, owner := s.passes.Claim(passKey(pred.Key + "\x1f" + m.Key))
		if owner {
			missing = append(missing, i)
			s.misses.Add(1)
		} else {
			s.hits.Add(1)
		}
		entries[i] = e
	}

	if len(missing) > 0 {
		newMechs := make([]func() core.Mechanism, len(missing))
		for j, i := range missing {
			newMechs[j] = mechs[i].New
		}
		res, err := sim.RunSuiteAnnotated(s.suiteConfig(), pred.Key, pred.New, newMechs)
		for j, i := range missing {
			e := entries[i]
			if err != nil {
				e.Err = err
				s.passes.Finish(e, 0)
				continue
			}
			// The pass's tallies are immutable from here on, so each
			// run's digest (the curve tier's key) is hashed at most once.
			res[j].MemoizeDigests()
			e.Val = res[j]
			s.passes.Finish(e, passBytes(res[j]))
		}
	}

	out := make([]sim.SuiteResult, len(mechs))
	for i, e := range entries {
		<-e.Done
		if e.Err != nil {
			return nil, e.Err
		}
		out[i] = e.Val.(sim.SuiteResult)
	}
	return out, nil
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

// SetPassBound bounds the session's resident pass-cache bytes; completed
// passes are evicted least-recently-used first (0 = unbounded, the
// one-shot default). A resident process sets this so an unbounded request
// mix cannot grow the pass cache without limit.
func (s *Session) SetPassBound(bytes uint64) { s.passes.SetBound(bytes) }

// PassUsage reports the pass cache's approximate resident bytes and
// evictions so far.
func (s *Session) PassUsage() (resident, evictions uint64) { return s.passes.Usage() }

// SuiteOne is Suite for a single mechanism.
func (s *Session) SuiteOne(pred PredSpec, mech MechSpec) (sim.SuiteResult, error) {
	rs, err := s.Suite(pred, mech)
	if err != nil {
		return sim.SuiteResult{}, err
	}
	return rs[0], nil
}

// Stats reports the session's pass-cache hits and misses so far.
func (s *Session) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Shared predictor and mechanism specs for the paper's two standard
// predictors and the recurring mechanisms.
var (
	predGshare64K = Pred(func() predictor.Predictor { return predictor.Gshare64K() })
	predGshare4K  = Pred(func() predictor.Predictor { return predictor.Gshare4K() })

	mechStatic    = Mech(func() core.Mechanism { return core.NewStaticProfile() })
	mechResetting = Mech(func() core.Mechanism { return core.PaperResetting() })

	// mechStrength is the predictor-coupled counter-strength mechanism in
	// its annotated form: it reads the captured pre-update counter state,
	// so it batches into shared passes like any independent mechanism.
	mechStrength = Mech(func() core.Mechanism { return core.NewAnnotatedStrength() })
)

// mechOneLevel is the paper one-level CIR mechanism for a given index
// scheme.
func mechOneLevel(scheme core.IndexScheme) MechSpec {
	return Mech(func() core.Mechanism { return core.PaperOneLevel(scheme) })
}

// mechTwoLevel is a two-level mechanism variant.
func mechTwoLevel(s1 core.IndexScheme, s2 core.SecondIndex) MechSpec {
	return Mech(func() core.Mechanism {
		return core.NewTwoLevel(core.TwoLevelConfig{Scheme1: s1, Scheme2: s2})
	})
}
