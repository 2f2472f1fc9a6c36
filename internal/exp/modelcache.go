package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"branchconf/internal/artifact"
	"branchconf/internal/memo"
)

// The model tier: the cycle-driven application models (internal/pipeline's
// gated fetch and dual-path machines, internal/apps' dual-path, SMT, hybrid,
// reverser and gating studies) are pure functions of per-branch lanes — each
// branch's gap, whether its prediction missed and its confidence bucket —
// and their outputs are flat vectors of event counts. A cold build reads
// those lanes from the engine's annotated and bucket tiers (modellanes.go),
// so it walks no predictor or estimator of its own; the machines then cost
// a few tens of nanoseconds per branch. Their count vectors memoize and
// persist exactly like curves: a process-wide byteLRU in front of a
// KindModelStats disk artifact, keyed by everything the counts are a pure
// function of. One record holds a model configuration's vectors for the
// whole suite, in suite order, so a warm report reads one small record per
// configuration rather than one per benchmark. Every derived figure (IPC,
// waste, coverage, efficiency) is recomputed from the counts, so a served
// vector renders byte-identically to a live model run.

// modelVersion versions the cycle models' behaviour in every model-tier
// key. Bump it whenever any model in internal/pipeline or internal/apps
// changes semantics — the key carries no content hash of the model code, so
// this constant is the only invalidation handle. TestModelGoldenCounts pins
// every model's count vector on a fixed trace, so a change in semantics
// fails it with a reminder to bump this constant.
const modelVersion = 1

// modelCache is the process-wide model-stats memo. Entries are a few
// hundred bytes each; the bound exists for symmetry with the other tiers
// and follows the annotated budget unless overridden.
var modelCache memo.ByteLRU

var modelHits, modelMisses atomic.Uint64

var modelBoundOverridden atomic.Bool

// SetModelCacheBound bounds the resident payload bytes of the model cache,
// overriding the default of following the annotated cache's bound. 0
// removes the bound.
func SetModelCacheBound(bytes uint64) {
	modelBoundOverridden.Store(true)
	modelCache.SetBound(bytes)
}

// SetModelCacheDefaultBound points the model cache at the shared
// -annotate-cache-mb budget figure; an explicit SetModelCacheBound wins.
func SetModelCacheDefaultBound(bytes uint64) {
	if !modelBoundOverridden.Load() {
		modelCache.SetBound(bytes)
	}
}

// ModelCacheReport returns the model cache's observability quad.
func ModelCacheReport() artifact.TierStats {
	r, e := modelCache.Usage()
	return artifact.TierStats{Hits: modelHits.Load(), Misses: modelMisses.Load(), Evictions: e, ResidentBytes: r}
}

// ResetModelCache drops every cached model result and zeroes the counters.
func ResetModelCache() {
	modelCache.Reset()
	modelHits.Store(0)
	modelMisses.Store(0)
}

// modelKey builds the canonical model-tier key: model version, model name,
// the benchmarks the record covers (suiteName), branch budget, and the
// model's full parameterisation. params must cover every input the counts
// depend on — predictor geometry, estimator config, machine shape — or two
// distinct runs would alias.
func modelKey(model, suite string, branches uint64, params string) string {
	return fmt.Sprintf("model|v%d|%s|suite=%s|n=%d|%s", modelVersion, model, suite, branches, params)
}

// modelCounts serves one cycle-model invocation's count vector through the
// tier: process memo first, disk artifact second, live model run last.
// Concurrent claimants of one key share a single run. want is the vector
// length the caller's unpacker expects; a disk record of any other length
// is dropped and re-run — the belt under the modelVersion suspenders, so a
// model whose count set changed without a version bump costs a rebuild,
// never a panic in an unpacker.
func (s *Session) modelCounts(key string, want int, build func() ([]uint64, error)) ([]uint64, error) {
	if s.cfg.NoModelArtifact {
		return build()
	}
	e, owner := modelCache.Claim(key)
	if !owner {
		modelHits.Add(1)
		<-e.Done
		if e.Err != nil {
			return nil, e.Err
		}
		return e.Val.([]uint64), nil
	}
	modelMisses.Add(1)
	counts, ok := modelFromDisk(key)
	if ok && len(counts) != want {
		if st := artifact.Default(); st != nil {
			st.Drop(artifact.KindModelStats, key)
		}
		ok = false
	}
	if !ok {
		var err error
		counts, err = build()
		if err != nil {
			e.Err = err
			modelCache.Finish(e, 0)
			return nil, err
		}
		modelToDisk(key, counts)
	}
	e.Val = counts
	modelCache.Finish(e, uint64(len(counts))*8)
	return counts, nil
}

// marshalCounts frames a count vector for the artifact tier.
func marshalCounts(counts []uint64) []byte {
	out := make([]byte, 0, 8+len(counts)*8)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(counts)))
	for _, c := range counts {
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return out
}

// unmarshalCounts decodes a count vector, validating the framing; any
// structural mismatch is corruption, never a short vector.
func unmarshalCounts(data []byte) ([]uint64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("exp: model payload truncated: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != n*8 {
		return nil, fmt.Errorf("exp: model payload holds %d bytes for %d counts", len(data), n)
	}
	counts := make([]uint64, n)
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return counts, nil
}

// modelFromDisk consults the persistent tier on an in-memory miss; a record
// failing the type-level decode is dropped fail-closed and re-run.
func modelFromDisk(key string) (counts []uint64, ok bool) {
	s := artifact.Default()
	if s == nil {
		return nil, false
	}
	pprof.Do(context.Background(), pprof.Labels("stage", "model-load"), func(context.Context) {
		payload, got := s.Get(artifact.KindModelStats, key)
		if !got {
			return
		}
		dec, err := unmarshalCounts(payload)
		if err != nil {
			s.Drop(artifact.KindModelStats, key)
			return
		}
		counts, ok = dec, true
	})
	return counts, ok
}

// modelToDisk publishes a freshly computed count vector, best effort.
func modelToDisk(key string, counts []uint64) {
	if s := artifact.Default(); s != nil {
		_ = s.Put(artifact.KindModelStats, key, marshalCounts(counts))
	}
}
