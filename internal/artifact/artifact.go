// Package artifact is the engine's durable cache tier: a content-addressed,
// disk-backed store that persists the expensive simulation and analysis
// intermediates — materialized replay buffers (internal/trace), annotated
// streams and bucket streams (internal/sim), and sorted confidence curves
// (internal/exp) — across process runs.
//
// The in-memory tiers (memo.Tier values in internal/workload, internal/sim
// and internal/exp) make intra-process reuse nearly free, but every process
// invocation still pays the full cold path before they help: the synthetic
// walk per benchmark and one predictor pass per (benchmark, predictor
// config). This package turns that into a warm start: every tier's miss
// path goes through memo.Tier, which consults the store before
// regenerating and publishes what it built afterwards, so a second
// `paperrepro` run against the same artifact directory skips stages 0–2
// entirely. memo.Tier is the only caller of Get, Put and Drop outside this
// package.
//
// Entries are keyed by a canonical string covering everything the payload is
// a pure function of — the workload spec, the branch budget, the predictor
// key or table geometry key, and the codec format version — and addressed
// by the SHA-256 of (kind, key). Every record embeds the full key and a
// checksum, so a hash collision or a corrupted record can never serve a
// wrong stream: loads verify and, on any mismatch, stop serving that copy
// and fall back to regeneration. Corruption costs time, never correctness.
// The checksum sweep itself is paid once per record per process — the
// first read verifies in full and marks the index entry; repeat reads
// re-check only the framing and the embedded key — except on a strict
// store, or once the store has seen any fault (a failed op or a failed
// verify), after which every read verifies in full again.
//
// On disk, records live in append-only pack files (see pack.go): each
// Store appends the records it publishes to one pack of its own, so a cold
// run creates one file however many records it writes, and an in-memory
// index, built at Open by walking record headers, maps each address to its
// pack, offset and length. Concurrent processes sharing a directory each
// append to their own pack and pick up each other's records on a local
// miss; racing on one key costs at most a duplicate copy (both wrote
// identical bytes anyway — payloads are pure functions of the key). The
// disk budget evicts whole packs, least recently used first. In-process,
// single-flight dedup is inherited from the in-memory tiers: the store is
// only consulted from a tier's owner (miss) path, so concurrent workers
// under -parallel generate and persist an artifact once.
//
// The tier is fail-soft: it runs on a narrow filesystem seam (FS, production
// implementation OSFS, fault-injecting implementation in internal/faultfs),
// classifies every I/O failure as transient or permanent, retries the
// transient ones, and trips a health breaker into in-memory-only degraded
// mode when the disk keeps failing — a flaky or full disk costs warm starts,
// never correctness and never the run. A writer abandons its pack after a
// failed append, and the next Open serves every record before the pack's
// torn tail. Strict stores (Options.Strict, paperrepro -artifact-strict)
// instead pin the first classified failure for the caller to fail hard on.
// See health.go.
package artifact

import "sync/atomic"

// Kinds partition the key space per payload codec. The kind is hashed into
// the content address and checked on load, so two artifact types can never
// alias even if their key strings collide.
const (
	// KindReplayBuffer is a materialized trace.ReplayBuffer.
	KindReplayBuffer uint16 = 1
	// KindAnnotatedStream is a sim.AnnotatedStream (mispredict bits plus
	// the optional pre-update predictor-state lane).
	KindAnnotatedStream uint16 = 2
	// KindBucketStream is a sim.BucketStream (packed per-branch bucket lane
	// plus the geometry's base histogram).
	KindBucketStream uint16 = 3
	// KindCurve is a sorted analysis.Curve, keyed by the content hash of
	// the per-run tallies it derives from plus the reduction parameters
	// (internal/exp).
	KindCurve uint16 = 4
	// KindModelStats is a cycle-model count vector (internal/pipeline and
	// internal/apps machines), keyed by the model's full parameterisation
	// and version (internal/exp).
	KindModelStats uint16 = 5
	// KindCheckpoint is a sim.Checkpoint: the serialized predictor or
	// factor-walk state at a streaming segment boundary, keyed by the
	// (spec, budget, predictor[, geometry]) unit and the boundary branch
	// position (internal/sim).
	KindCheckpoint uint16 = 6
	// KindPartial is one fan-out shard's partial report — the rendered
	// sections and scalars for its slice of the (experiment, benchmark)
	// matrix — keyed by the canonical request, the shard coordinates, and
	// the partial codec version (internal/serve). Workers publish partials
	// here (and so into the shared remote tier) for the coordinator's
	// registry-order merge.
	KindPartial uint16 = 7
)

// TierStats is the uniform observability quad every cache tier reports
// (each memo.Tier and the disk store), plus the disk tier's
// health columns — verify failures, operation errors, and the degraded
// flag — which stay zero for in-memory tiers: they have no payload
// integrity to check and no disk to fail.
type TierStats struct {
	Hits, Misses  uint64
	Evictions     uint64
	ResidentBytes uint64
	VerifyFails   uint64
	// OpErrors counts filesystem operations that failed after retry —
	// the raw signal behind the health breaker.
	OpErrors uint64
	// Degraded reports that the tier has tripped its breaker (or failed a
	// strict open) and is no longer touching its backing disk.
	Degraded bool
}

// defaultStore is the process-wide store consulted by the engine's miss
// paths; nil disables the disk tier.
var defaultStore atomic.Pointer[Store]

// SetDefault installs (or, with nil, removes) the process-wide store.
func SetDefault(s *Store) { defaultStore.Store(s) }

// Default returns the process-wide store, or nil when the disk tier is
// disabled.
func Default() *Store { return defaultStore.Load() }

// Report returns the default store's counters, or a zero quad when the disk
// tier is disabled.
func Report() TierStats {
	if s := Default(); s != nil {
		return s.Stats()
	}
	return TierStats{}
}

// RemoteReport returns the default store's remote-tier counters, or a zero
// quad when no remote tier is configured. In this tier's row the uniform
// quad is remapped where the disk columns have no network meaning:
// ResidentBytes counts record bytes moved over the wire (both directions)
// and Evictions counts write-behind Puts shed by a full queue or a
// degraded tier.
func RemoteReport() TierStats {
	if s := Default(); s != nil {
		return s.RemoteStats()
	}
	return TierStats{}
}
