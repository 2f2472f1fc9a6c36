package sim

import (
	"fmt"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Process-wide annotated-stream tier. The predictor stage of the engine is
// a pure function of (benchmark spec, branch budget, predictor config), so
// its outputs are memoized exactly like materialized traces:
//
//   - flat views (fully decoded records, 24 B/branch) are keyed by (spec,
//     budget) and shared across every predictor config, and
//   - annotated streams (mispredict + state bits, ~3/8 B/branch for gshare)
//     are keyed by (spec, budget, predictor key).
//
// Flat views live in the annotated tier's memory (memo.Tier.ShareWith), so
// both kinds share a single resident-bytes budget
// (SetAnnotatedCacheBound). The stage-3 bucket-stream tier (tally.go) is a
// sibling over the same machinery.

type flatKey struct {
	spec workload.Spec
	n    uint64
}

type annKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
}

// AnnotatedTier memoizes annotated streams, persisted as
// KindAnnotatedStream records. Its counters count annotated-stream claims
// (the expensive artifact); its resident bytes include the flat views
// sharing its budget.
var AnnotatedTier = &memo.Tier[annKey, *AnnotatedStream]{
	Name:   "annotated-stream",
	Kind:   artifact.KindAnnotatedStream,
	Key:    func(k annKey) string { return annArtifactKey(k.spec, k.n, k.predKey) },
	Encode: marshalAnnotatedStream,
	Decode: unmarshalAnnotatedStream,
	Size:   (*AnnotatedStream).Footprint,
}

// flatTier memoizes flat views in the annotated tier's memory; they are
// cheap to rebuild from the trace memo, so they never reach the store.
var flatTier = &memo.Tier[flatKey, *trace.FlatView]{
	Name:      "flat-view",
	Size:      (*trace.FlatView).Footprint,
	ShareWith: AnnotatedTier,
}

// CacheStats is one cache's observability snapshot, as printed under the
// paperrepro -cache-stats flag — the uniform hit/miss/eviction/resident
// quad shared by every tier (the disk tier additionally moves the
// verify-fail counter; in-memory tiers leave it zero).
type CacheStats = artifact.TierStats

// SetAnnotatedCacheBound bounds the resident payload bytes of the annotated
// tier (flat views plus annotated streams). 0 removes the bound.
func SetAnnotatedCacheBound(bytes uint64) { AnnotatedTier.SetBound(bytes) }

// annotatedFor returns the (flat view, annotated stream) pair for one
// benchmark under one predictor config, running the predictor stage only on
// a miss in memory and on disk. Concurrent claimants of the same key share
// one build.
func annotatedFor(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor) (*trace.FlatView, *AnnotatedStream, error) {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	flat, err := flatTier.Get(flatKey{spec: spec, n: n}, nil, func() (*trace.FlatView, error) {
		buf, err := workload.Materialize(spec, cfg.Branches)
		if err != nil {
			return nil, err
		}
		return buf.Flatten(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	// A stored stream must cover exactly the flat view's branches.
	covers := func(ann *AnnotatedStream) bool { return ann.n == flat.Len() }
	ann, err := AnnotatedTier.Get(annKey{spec: spec, n: n, predKey: predKey}, covers, func() (*AnnotatedStream, error) {
		return Annotate(flat, newPred()), nil
	})
	return flat, ann, err
}

// annArtifactKey is the canonical disk-store key for one annotated stream:
// codec version, full spec identity, resolved budget, and predictor config.
func annArtifactKey(spec workload.Spec, n uint64, predKey string) string {
	return fmt.Sprintf("ann|v%d|%s|n=%d|pred=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey)
}

// Lanes returns one benchmark's per-branch lanes as the engine's tiers hold
// them: the flat record view (gaps, PCs, outcomes), the annotated stream of
// pred's mispredict bits and, when ct is non-nil, ct's counter lane trained
// on those bits. Each comes from its process-wide memo and is built only on
// a miss, exactly as a suite pass would build it; the counter lane is
// walked at most once per (benchmark, budget, predictor, geometry) while it
// stays resident, and only in memory. Consumers that need only "did it
// miss" and "what counter did it read" per branch (the cycle models) read
// these instead of re-walking the predictor and the table. cfg must not be
// segmented: the lanes are whole-trace.
func Lanes(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, ct *core.CounterTable) (*trace.FlatView, *AnnotatedStream, *CounterLane, error) {
	flat, ann, err := wholeTrace(cfg, spec, predKey, newPred)
	if err != nil {
		return nil, nil, nil, err
	}
	if ct == nil {
		return flat, ann, nil, nil
	}
	cl, err := counterLaneFor(cfg, spec, predKey, flat, ann, ct)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: tallying %s: %w", spec.Name, err)
	}
	return flat, ann, cl, nil
}

// Histogram returns fm's base histogram over one benchmark under pred, from
// the bucket tier exactly as a suite pass reads it. cfg must not be
// segmented.
func Histogram(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, fm core.Factorable) (analysis.BucketStats, error) {
	flat, ann, err := wholeTrace(cfg, spec, predKey, newPred)
	if err != nil {
		return nil, err
	}
	bs, err := bucketStreamFor(cfg, spec, predKey, flat, ann, fm)
	if err != nil {
		return nil, fmt.Errorf("sim: tallying %s: %w", spec.Name, err)
	}
	return bs.Stats(), nil
}

// wholeTrace is annotatedFor for the whole-trace readers, which a
// segmented config cannot serve.
func wholeTrace(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor) (*trace.FlatView, *AnnotatedStream, error) {
	if cfg.SegmentBranches > 0 {
		return nil, nil, fmt.Errorf("sim: whole-trace lanes requested under a segmented config")
	}
	flat, ann, err := annotatedFor(cfg, spec, predKey, newPred)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: annotating %s: %w", spec.Name, err)
	}
	return flat, ann, nil
}
