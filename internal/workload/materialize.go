package workload

import (
	"fmt"

	"branchconf/internal/artifact"
	"branchconf/internal/memo"
	"branchconf/internal/trace"
)

// Process-wide materialized-trace tier. Every experiment over a given
// (benchmark, seed, branch budget) consumes the identical record stream, so
// the walk is generated once and replayed from a compact ReplayBuffer
// thereafter. Entries are keyed by the full Spec (which embeds the
// benchmark name and seed) plus the resolved budget; a Spec is a pure value
// type, so equal keys guarantee byte-identical traces.

type memoKey struct {
	spec Spec
	n    uint64
}

// TraceTier is the trace memo: replay buffers in memory, persisted as
// KindReplayBuffer records. It is unbounded — buffers live for the process
// (about 4-5 bytes per branch; ~5 MB for a default one-million-branch
// benchmark).
var TraceTier = &memo.Tier[memoKey, *trace.ReplayBuffer]{
	Name: "trace-memo",
	Kind: artifact.KindReplayBuffer,
	Key:  func(k memoKey) string { return replayArtifactKey(k.spec, k.n) },
	// MarshalBinary implements encoding.BinaryMarshaler and never fails.
	Encode: func(b *trace.ReplayBuffer) []byte { p, _ := b.MarshalBinary(); return p },
	Decode: trace.UnmarshalReplayBuffer,
	Size:   (*trace.ReplayBuffer).Footprint,
}

// Materialize returns the shared replay buffer for spec's finite trace of n
// records (DefaultBranches when n == 0), generating it on first use. It is
// safe for concurrent use: callers racing on the same key block on a single
// generation and share its result. An error is not cached: the next call
// generates again. Callers needing a one-shot materialization without
// retention should use trace.Materialize directly.
func Materialize(spec Spec, n uint64) (*trace.ReplayBuffer, error) {
	if n == 0 {
		n = spec.DefaultBranches
	}
	if spec.IsTrace() && n > spec.TraceCount {
		// The file holds what it holds; resolving the budget here keeps
		// the memo key, the artifact key, and the buffer's record count
		// agreeing with what the source can actually emit.
		n = spec.TraceCount
	}
	covers := func(b *trace.ReplayBuffer) bool { return uint64(b.Len()) == n }
	return TraceTier.Get(memoKey{spec: spec, n: n}, covers, func() (*trace.ReplayBuffer, error) {
		src, err := spec.FiniteSource(n)
		if err != nil {
			return nil, err
		}
		return trace.Materialize(src, 0)
	})
}

// replayArtifactKey is the canonical disk-store key for one materialized
// trace: the payload codec version, the full spec identity, and the
// resolved branch budget.
func replayArtifactKey(spec Spec, n uint64) string {
	return fmt.Sprintf("replay|v%d|%s|n=%d", artifact.FormatVersion, spec.CacheKey(), n)
}
