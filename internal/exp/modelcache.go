package exp

import (
	"encoding/binary"
	"fmt"

	"branchconf/internal/artifact"
	"branchconf/internal/memo"
)

// The model tier: the cycle-driven application models (internal/pipeline's
// gated fetch and dual-path machines, internal/apps' dual-path, SMT, hybrid,
// reverser and gating studies) are pure functions of per-branch lanes — each
// branch's gap, whether its prediction missed and its confidence bucket —
// and their outputs are flat vectors of event counts. A cold build reads
// those lanes from the engine's annotated streams and counter lanes
// (modellanes.go), so it walks no predictor or estimator of its own; the
// machines then cost a few tens of nanoseconds per branch. Their count vectors memoize and
// persist exactly like curves: a memo.Tier in front of a KindModelStats
// disk artifact, keyed by everything the counts are a pure
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

// ModelTier is the process-wide model-stats tier, persisted as
// KindModelStats records. Entries are a few hundred bytes each; the bound
// exists for symmetry with the other tiers. The memory key is the store
// key itself.
var ModelTier = &memo.Tier[string, []uint64]{
	Name:   "model-stats",
	Kind:   artifact.KindModelStats,
	Key:    func(k string) string { return k },
	Encode: marshalCounts,
	Decode: unmarshalCounts,
	Size:   func(counts []uint64) uint64 { return uint64(len(counts)) * 8 },
}

// SetModelCacheDefaultBound bounds the resident payload bytes of the model
// tier. 0 removes the bound.
func SetModelCacheDefaultBound(bytes uint64) { ModelTier.SetBound(bytes) }

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
	return ModelTier.Get(key, func(counts []uint64) bool { return len(counts) == want }, build)
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
