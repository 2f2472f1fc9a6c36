package serve

import (
	"encoding/json"
	"io"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/heapwatch"
)

// TierStatsJSON is one cache tier's uniform counter quad plus health
// columns in machine-readable form — the JSON twin of the -cache-stats
// text rows.
type TierStatsJSON struct {
	Name          string `json:"name"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	ResidentBytes uint64 `json:"resident_bytes"`
	VerifyFails   uint64 `json:"verify_fails"`
	OpErrors      uint64 `json:"op_errors"`
	Degraded      bool   `json:"degraded"`
}

func tierJSON(name string, s artifact.TierStats) TierStatsJSON {
	return TierStatsJSON{
		Name:          name,
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		ResidentBytes: s.ResidentBytes,
		VerifyFails:   s.VerifyFails,
		OpErrors:      s.OpErrors,
		Degraded:      s.Degraded,
	}
}

// HeapStageJSON is one engine stage's peak-heap row (present only when
// heap sampling was enabled for the run).
type HeapStageJSON struct {
	Stage         string `json:"stage"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// CacheStatsJSON is the machine-readable nine-tier stats snapshot: the
// session-pass tier on top, the eight engine tiers beneath it in
// consultation order, and optional per-stage peak-heap rows. The one-shot CLI's
// -cache-stats-json flag and the daemon's stats endpoint emit the same
// encoding.
type CacheStatsJSON struct {
	SessionPass TierStatsJSON    `json:"session_pass"`
	Tiers       []TierStatsJSON  `json:"tiers"`
	HeapStages  []HeapStageJSON  `json:"heap_stages,omitempty"`
	Server      *ServerStatsJSON `json:"server,omitempty"`
}

// ServerStatsJSON is the daemon's own request-path counters, absent from
// one-shot snapshots.
type ServerStatsJSON struct {
	RequestsTotal     uint64 `json:"requests_total"`
	RequestsOK        uint64 `json:"requests_ok"`
	RequestsFailed    uint64 `json:"requests_failed"`
	ReportCacheHits   uint64 `json:"report_cache_hits"`
	ReportCacheMisses uint64 `json:"report_cache_misses"`
	Inflight          int64  `json:"inflight"`
	Queued            int64  `json:"queued"`
	RejectedFull      uint64 `json:"rejected_queue_full"`
	RejectedTimeout   uint64 `json:"rejected_queue_timeout"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	PressureEvents    uint64 `json:"memory_pressure_events"`
	Draining          bool   `json:"draining"`
}

// SnapshotCacheStats is SnapshotTierStats for a session-pass row of hits
// and misses alone.
func SnapshotCacheStats(passHits, passMisses uint64, heapStages bool) CacheStatsJSON {
	return SnapshotTierStats(artifact.TierStats{Hits: passHits, Misses: passMisses}, heapStages)
}

// SnapshotTierStats assembles the uniform snapshot from the process-wide
// tiers plus the caller's session-pass row (a one-shot run reports its
// private pass cache, the daemon the one its requests share; see
// exp.Session.PassStats).
func SnapshotTierStats(pass artifact.TierStats, heapStages bool) CacheStatsJSON {
	out := CacheStatsJSON{SessionPass: tierJSON("session-pass", pass)}
	for _, tier := range exp.CacheTiers() {
		out.Tiers = append(out.Tiers, tierJSON(tier.Name, tier.Stats))
	}
	if heapStages {
		for _, sp := range heapwatch.Report() {
			out.HeapStages = append(out.HeapStages, HeapStageJSON{Stage: sp.Stage, PeakHeapBytes: sp.Peak})
		}
	}
	return out
}

// WriteCacheStatsJSON encodes the snapshot as indented JSON with a
// trailing newline — the exact bytes both the CLI flag and the daemon
// endpoint produce.
func WriteCacheStatsJSON(w io.Writer, s CacheStatsJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
