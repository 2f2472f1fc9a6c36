package exp

import (
	"branchconf/internal/artifact"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// CacheTier is one engine cache's name and uniform counter quad, in the
// order the pipeline consults them.
type CacheTier struct {
	Name  string
	Stats artifact.TierStats
}

// CacheTiers snapshots every tier of the cache hierarchy the engine runs
// on — the trace memo, annotated-stream, bucket-stream, model-stats and
// curve tiers, the persistent disk store, the streaming engine's segment
// tier, and the disk store's remote tier — under one uniform
// hit/miss/eviction/resident quad (plus the disk tier's health columns:
// verify failures, op errors, and the degraded flag a tripped breaker
// raises), so the -cache-stats table renders all tiers identically. The
// session-pass tier (Session.PassStats) sits above all of these; it
// belongs to a session rather than to the process, so the caller that owns
// the session reports it.
func CacheTiers() []CacheTier {
	return []CacheTier{
		{Name: workload.TraceTier.Name, Stats: workload.TraceTier.Stats()},
		{Name: sim.AnnotatedTier.Name, Stats: sim.AnnotatedTier.Stats()},
		{Name: sim.BucketTier.Name, Stats: sim.BucketTier.Stats()},
		{Name: ModelTier.Name, Stats: ModelTier.Stats()},
		{Name: CurveTier.Name, Stats: CurveTier.Stats()},
		{Name: "artifact-disk", Stats: artifact.Report()},
		// The streaming engine's segment counters ride the same quad: warm
		// vs live segment payloads as hits/misses, forceLive unit retries as
		// verify failures, and the in-flight segment-bytes high-water mark
		// as resident bytes.
		{Name: "stream-segment", Stats: sim.StreamReport()},
		// The remote artifact tier layered under the disk store. Its quad is
		// remapped where disk columns have no network meaning: resident_bytes
		// counts record bytes moved over the wire (both directions) and
		// evictions counts write-behind Puts shed by a full queue or a
		// degraded tier.
		{Name: "remote-artifact", Stats: artifact.RemoteReport()},
	}
}
