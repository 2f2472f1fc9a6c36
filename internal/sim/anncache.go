package sim

import (
	"fmt"
	"sync/atomic"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Process-wide annotated-stream cache. The predictor stage of the engine is
// a pure function of (benchmark spec, branch budget, predictor config), so
// its outputs are memoized exactly like materialized traces:
//
//   - flat views (fully decoded records, 24 B/branch) are keyed by (spec,
//     budget) and shared across every predictor config, and
//   - annotated streams (mispredict + state bits, ~3/8 B/branch for gshare)
//     are keyed by (spec, budget, predictor key).
//
// Both kinds live in one memo.ByteLRU instance, so they share a single
// resident-bytes budget (SetAnnotatedCacheBound); the claim-or-wait and
// LRU-eviction mechanics are the cache's. The stage-3 bucket-stream cache
// (tally.go) is a sibling instance over the same machinery.

type flatKey struct {
	spec workload.Spec
	n    uint64
}

type annKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
}

var annCache memo.ByteLRU

// Cache observability counters. Hits and misses count annotated-stream
// claims (the expensive artifact); flat views piggyback on the same keys
// one level up.
var annHits, annMisses atomic.Uint64

// CacheStats is one cache's observability snapshot, as printed under the
// paperrepro -cache-stats flag — the uniform hit/miss/eviction/resident
// quad shared by every tier (the disk tier additionally moves the
// verify-fail counter; in-memory tiers leave it zero).
type CacheStats = artifact.TierStats

// SetAnnotatedCacheBound bounds the resident payload bytes of the annotated
// cache (flat views plus annotated streams). 0 removes the bound. When an
// insertion pushes the cache over the bound, completed entries are evicted
// least-recently-used first; a single entry larger than the bound is still
// admitted (and becomes the next eviction candidate).
func SetAnnotatedCacheBound(bytes uint64) {
	annCache.SetBound(bytes)
}

// AnnotatedCacheReport returns the annotated cache's observability quad
// (claims of annotated streams; resident bytes include the flat views
// sharing the budget).
func AnnotatedCacheReport() CacheStats {
	r, e := annCache.Usage()
	return CacheStats{Hits: annHits.Load(), Misses: annMisses.Load(), Evictions: e, ResidentBytes: r}
}

// ResetAnnotatedCache drops every cached entry and zeroes the counters. The
// bound is retained. Intended for tests and batch boundaries.
func ResetAnnotatedCache() {
	annCache.Reset()
	annHits.Store(0)
	annMisses.Store(0)
}

// flatFor returns the shared flat view for (spec, budget), building it from
// the suite's replay buffer on first use.
func flatFor(cfg SuiteConfig, spec workload.Spec, n uint64) (*trace.FlatView, error) {
	e, owner := annCache.Claim(flatKey{spec: spec, n: n})
	if !owner {
		<-e.Done
		flat, _ := e.Val.(*trace.FlatView)
		return flat, e.Err
	}
	var flat *trace.FlatView
	buf, err := cfg.buffer(spec)
	if err != nil {
		e.Err = err
	} else {
		flat = buf.Flatten()
		e.Val = flat
	}
	var bytes uint64
	if flat != nil {
		bytes = flat.Footprint()
	}
	annCache.Finish(e, bytes)
	return flat, e.Err
}

// annotatedFor returns the (flat view, annotated stream) pair for one
// benchmark under one predictor config, running the predictor stage only on
// a cache miss. Concurrent claimants of the same key share one build.
func annotatedFor(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor) (*trace.FlatView, *AnnotatedStream, error) {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	flat, err := flatFor(cfg, spec, n)
	if err != nil {
		return nil, nil, err
	}

	e, owner := annCache.Claim(annKey{spec: spec, n: n, predKey: predKey})
	if !owner {
		annHits.Add(1)
		<-e.Done
		ann, _ := e.Val.(*AnnotatedStream)
		return flat, ann, e.Err
	}
	annMisses.Add(1)
	ann := annotatedFromDisk(spec, n, predKey, flat)
	if ann == nil {
		ann = Annotate(flat, newPred())
		annotatedToDisk(spec, n, predKey, ann)
	}
	e.Val = ann
	annCache.Finish(e, ann.Footprint())
	return flat, ann, e.Err
}

// annArtifactKey is the canonical disk-store key for one annotated stream:
// codec version, full spec identity, resolved budget, and predictor config.
func annArtifactKey(spec workload.Spec, n uint64, predKey string) string {
	return fmt.Sprintf("ann|v%d|%s|n=%d|pred=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey)
}

// annotatedFromDisk consults the persistent artifact tier on an in-memory
// miss, returning nil when the tier is disabled, cold, or fails
// verification (the predictor stage then runs as usual). The decoded
// stream must cover exactly the flat view's branches; anything else is
// treated as corruption and dropped.
func annotatedFromDisk(spec workload.Spec, n uint64, predKey string, flat *trace.FlatView) *AnnotatedStream {
	s := artifact.Default()
	if s == nil {
		return nil
	}
	key := annArtifactKey(spec, n, predKey)
	payload, ok := s.Get(artifact.KindAnnotatedStream, key)
	if !ok {
		return nil
	}
	ann, err := unmarshalAnnotatedStream(payload)
	if err != nil || ann.n != flat.Len() {
		s.Drop(artifact.KindAnnotatedStream, key)
		return nil
	}
	return ann
}

// annotatedToDisk publishes a freshly annotated stream to the persistent
// tier, best effort: write failures only cost the next process a cold
// start. The store retries transient faults and degrades itself after
// repeated ones (artifact.TierStats.Degraded), so the error is deliberately
// ignored here — failure policy lives in one place, the store.
func annotatedToDisk(spec workload.Spec, n uint64, predKey string, ann *AnnotatedStream) {
	if s := artifact.Default(); s != nil {
		_ = s.Put(artifact.KindAnnotatedStream, annArtifactKey(spec, n, predKey), marshalAnnotatedStream(ann))
	}
}

// Lanes returns one benchmark's per-branch lanes as the engine's tiers hold
// them: the flat record view (gaps, PCs, outcomes), the annotated stream of
// pred's mispredict bits and, when fm is non-nil, the bucket stream of fm's
// table geometry trained on those bits. Each comes from its process-wide
// memo and disk tier and is built only on a miss, exactly as a suite pass
// would build it — whatever cfg.NoTally says, since the lanes are the same
// either way. Consumers that need only "did it miss" and "what bucket was
// it in" per branch (the cycle models) read these instead of re-walking
// the predictor and the table. cfg must not be segmented: the lanes are
// whole-trace.
func Lanes(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, fm core.Factorable) (*trace.FlatView, *AnnotatedStream, *BucketStream, error) {
	if cfg.SegmentBranches > 0 {
		return nil, nil, nil, fmt.Errorf("sim: whole-trace lanes requested under a segmented config")
	}
	flat, ann, err := annotatedFor(cfg, spec, predKey, newPred)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: annotating %s: %w", spec.Name, err)
	}
	if fm == nil {
		return flat, ann, nil, nil
	}
	bs, err := bucketStreamFor(cfg, spec, predKey, flat, ann, fm)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: tallying %s: %w", spec.Name, err)
	}
	return flat, ann, bs, nil
}
