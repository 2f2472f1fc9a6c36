package exp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/memo"
	"branchconf/internal/sim"
)

// The curve tier: sorted confidence curves are pure functions of the
// per-run integer tallies and the reduction layered on top (composite
// mode plus an optional bucket-merge), so they memoize and persist exactly
// like the simulation intermediates below them. The key is the content
// hash of the tallies (analysis.HashRuns) plus the reduction parameters —
// never an experiment identity — so two experiments deriving the same
// curve share one build, and any change to engine output self-invalidates
// every dependent curve.
//
// The content hash is combined from the runs' per-run digests
// (sim.Result.Digest). A session-published pass memoizes those digests, so
// each of its runs is hashed at most once per process and a warm curve hit
// costs O(runs): combining at most nine digests plus a memory lookup.
// Warm runs served from this tier also skip BuildCurve and the composite
// build entirely: CurveSet defers CompositePooled/CompositeDistinct/Single
// until something actually needs the weighted composite, which on a full
// curve hit is never. Config.NoCurveArtifact bypasses the tier (memory
// and disk) for A/B runs; results are byte-identical either way because
// the codec round-trips every float through its exact bit pattern.

// curveCache is the process-wide curve memo, a sibling of the annotated
// and bucket-stream byteLRUs. Its resident bound follows the annotated
// budget unless SetCurveCacheBound overrides it.
var curveCache memo.ByteLRU

var curveHits, curveMisses atomic.Uint64

// curveBoundOverridden records an explicit SetCurveCacheBound call, after
// which SetCurveCacheDefaultBound no longer tracks the annotated bound.
var curveBoundOverridden atomic.Bool

// SetCurveCacheBound bounds the resident payload bytes of the curve cache,
// overriding the default of following the annotated cache's bound. 0
// removes the bound.
func SetCurveCacheBound(bytes uint64) {
	curveBoundOverridden.Store(true)
	curveCache.SetBound(bytes)
}

// SetCurveCacheDefaultBound points the curve cache at the shared
// -annotate-cache-mb budget figure; an explicit SetCurveCacheBound wins.
func SetCurveCacheDefaultBound(bytes uint64) {
	if !curveBoundOverridden.Load() {
		curveCache.SetBound(bytes)
	}
}

// CurveCacheReport returns the curve cache's observability quad.
func CurveCacheReport() artifact.TierStats {
	r, e := curveCache.Usage()
	return artifact.TierStats{Hits: curveHits.Load(), Misses: curveMisses.Load(), Evictions: e, ResidentBytes: r}
}

// ResetCurveCache drops every cached curve and zeroes the counters. The
// bound (and whether it was overridden) is retained.
func ResetCurveCache() {
	curveCache.Reset()
	curveHits.Store(0)
	curveMisses.Store(0)
}

// CurveSet is one composite's worth of curves: a set of runs plus a
// composite mode, from which any number of reductions (the identity curve
// and bucket-merged variants) are derived. The weighted composite itself
// is built lazily — a warm run whose curves all hit the cache never pays
// CompositePooled at all — and at most once, shared across the set's
// reductions (fig8 derives ideal and ones-count curves from one pooled
// composite; both cold builds share it here too).
type CurveSet struct {
	s    *Session
	mode string // "pooled" | "distinct" | "single"
	runs []sim.Result

	wsOnce sync.Once
	ws     analysis.WeightedStats
}

// Pooled returns the curve set over the equal-weight pooled composite of
// the runs' tallies (analysis.CompositePooled).
func (s *Session) Pooled(runs []sim.Result) *CurveSet {
	return &CurveSet{s: s, mode: "pooled", runs: runs}
}

// Distinct returns the curve set over the equal-weight run-distinct
// composite of the runs' tallies (analysis.CompositeDistinct).
func (s *Session) Distinct(runs []sim.Result) *CurveSet {
	return &CurveSet{s: s, mode: "distinct", runs: runs}
}

// SingleRun returns the curve set over one run's unweighted tallies
// (analysis.Single).
func (s *Session) SingleRun(r sim.Result) *CurveSet {
	return &CurveSet{s: s, mode: "single", runs: []sim.Result{r}}
}

// Stats returns the set's weighted composite, building it on first use.
// Callers that need the composite itself (threshold tables, miss rates,
// BuildCurveOrdered) take it from here so a sibling Curve build shares it.
func (c *CurveSet) Stats() analysis.WeightedStats {
	c.wsOnce.Do(func() {
		switch c.mode {
		case "pooled":
			c.ws = analysis.CompositePooled(sim.SuiteResult{Runs: c.runs}.Stats())
		case "distinct":
			c.ws = analysis.CompositeDistinct(sim.SuiteResult{Runs: c.runs}.Stats())
		default:
			c.ws = analysis.Single(c.runs[0].Buckets)
		}
	})
	return c.ws
}

// contentHash returns the set's tally content hash, analysis.HashRuns of
// the runs' tallies, combined from their (memoized, where attached) digests.
func (c *CurveSet) contentHash() string {
	digests := make([][sha256.Size]byte, len(c.runs))
	for i, r := range c.runs {
		digests[i] = r.Digest()
	}
	h := analysis.CombineRunHashes(digests)
	return hex.EncodeToString(h[:])
}

// Curve returns the set's sorted curve under the identity reduction.
func (c *CurveSet) Curve() analysis.Curve {
	return c.curve("", nil)
}

// Merged returns the set's sorted curve after rewriting buckets through
// fn (analysis.WeightedStats.MergeBuckets). desc must uniquely identify
// fn's behaviour — it is the reduction's cache identity; equal descriptors
// with different functions would serve wrong curves.
func (c *CurveSet) Merged(desc string, fn func(uint64) uint64) analysis.Curve {
	if desc == "" {
		panic("exp: Merged requires a non-empty reduction descriptor")
	}
	return c.curve(desc, fn)
}

// build constructs the curve directly from the composite.
func (c *CurveSet) build(fn func(uint64) uint64) analysis.Curve {
	ws := c.Stats()
	if fn != nil {
		ws = ws.MergeBuckets(fn)
	}
	return analysis.BuildCurve(ws)
}

// curve serves one (tallies, mode, reduction) curve through the tier:
// process memo first, disk artifact second, direct build last. Concurrent
// claimants of one key share a single build.
func (c *CurveSet) curve(desc string, fn func(uint64) uint64) analysis.Curve {
	if c.s.cfg.NoCurveArtifact {
		return c.build(fn)
	}
	key := curveArtifactKey(c.contentHash(), c.mode, desc)
	e, owner := curveCache.Claim(key)
	if !owner {
		curveHits.Add(1)
		<-e.Done
		cv, _ := e.Val.(analysis.Curve)
		return cv
	}
	curveMisses.Add(1)
	cv, fromDisk := curveFromDisk(key)
	if !fromDisk {
		cv = c.build(fn)
		curveToDisk(key, cv)
	}
	e.Val = cv
	curveCache.Finish(e, uint64(len(cv))*curvePointWire)
	return cv
}

// curveArtifactKey is the canonical store key for one curve: codec
// version, tally content hash, composite mode, and reduction descriptor.
func curveArtifactKey(hash, mode, desc string) string {
	return fmt.Sprintf("curve|v%d|%s|mode=%s|merge=%s", artifact.FormatVersion, hash, mode, desc)
}

// curvePointWire is the wire size of one curve point: seven 64-bit words
// (run, bucket, rate, and the four percentage columns).
const curvePointWire = 7 * 8

// marshalCurve encodes a curve for the artifact tier. Floats are stored as
// IEEE 754 bit patterns, so a decoded curve is byte-identical to the built
// one in every downstream rendering.
func marshalCurve(cv analysis.Curve) []byte {
	out := make([]byte, 0, 8+len(cv)*curvePointWire)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(cv)))
	for _, p := range cv {
		out = binary.LittleEndian.AppendUint64(out, uint64(int64(p.Key.Run)))
		out = binary.LittleEndian.AppendUint64(out, p.Key.Bucket)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Rate))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.EventsPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.MissesPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.CumEventsPct))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.CumMissesPct))
	}
	return out
}

// unmarshalCurve decodes a curve payload, validating the framing
// exhaustively: any structural mismatch is corruption, never a partial
// curve.
func unmarshalCurve(data []byte) (analysis.Curve, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("exp: curve payload truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != n*curvePointWire {
		return nil, fmt.Errorf("exp: curve payload holds %d bytes for %d points", len(data), n)
	}
	if n == 0 {
		return nil, nil // an empty curve marshals and builds as nil
	}
	cv := make(analysis.Curve, n)
	for i := range cv {
		w := data[i*curvePointWire:]
		cv[i] = analysis.Point{
			Key: analysis.Key{
				Run:    int(int64(binary.LittleEndian.Uint64(w))),
				Bucket: binary.LittleEndian.Uint64(w[8:]),
			},
			Rate:         math.Float64frombits(binary.LittleEndian.Uint64(w[16:])),
			EventsPct:    math.Float64frombits(binary.LittleEndian.Uint64(w[24:])),
			MissesPct:    math.Float64frombits(binary.LittleEndian.Uint64(w[32:])),
			CumEventsPct: math.Float64frombits(binary.LittleEndian.Uint64(w[40:])),
			CumMissesPct: math.Float64frombits(binary.LittleEndian.Uint64(w[48:])),
		}
	}
	return cv, nil
}

// curveFromDisk consults the persistent artifact tier on an in-memory
// miss. ok distinguishes a served curve (possibly nil — empty curves are
// legitimate) from a miss; a record failing the type-level decode is
// dropped fail-closed and rebuilt.
func curveFromDisk(key string) (cv analysis.Curve, ok bool) {
	s := artifact.Default()
	if s == nil {
		return nil, false
	}
	pprof.Do(context.Background(), pprof.Labels("stage", "curve-load"), func(context.Context) {
		payload, got := s.Get(artifact.KindCurve, key)
		if !got {
			return
		}
		dec, err := unmarshalCurve(payload)
		if err != nil {
			s.Drop(artifact.KindCurve, key)
			return
		}
		cv, ok = dec, true
	})
	return cv, ok
}

// curveToDisk publishes a freshly built curve to the persistent tier, best
// effort; the store owns retry and degradation, so its error is
// deliberately ignored.
func curveToDisk(key string, cv analysis.Curve) {
	if s := artifact.Default(); s != nil {
		_ = s.Put(artifact.KindCurve, key, marshalCurve(cv))
	}
}
