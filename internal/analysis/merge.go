package analysis

// TallyMerger folds per-segment bucket statistics into one running
// BucketStats for the streaming tally engine (internal/sim). Tallies are
// exact integer sums, so merging segment histograms in stream order yields
// bit-for-bit the statistics a monolithic walk would have produced — the
// invariant every downstream artefact (HashRuns-keyed curves, model-stats
// vectors) rests on.
type TallyMerger struct {
	stats BucketStats
	spare BucketStats // the previous merge's buffer, reused by the next
}

// NewTallyMerger returns a merger with empty statistics.
func NewTallyMerger() *TallyMerger {
	return &TallyMerger{stats: BucketStats{}}
}

// Merge folds one segment's statistics into the running totals, merging
// the two ascending bucket sequences in one walk. The input is read,
// never retained or mutated, so callers may merge a shared read-only
// histogram (a cached BucketStream's) directly.
func (m *TallyMerger) Merge(bs BucketStats) {
	a := m.stats
	out := m.spare[:0]
	if need := len(a) + len(bs); cap(out) < need {
		out = make(BucketStats, 0, need)
	}
	i, j := 0, 0
	for i < len(a) && j < len(bs) {
		switch x, y := a[i], bs[j]; {
		case x.Bucket < y.Bucket:
			out = append(out, x)
			i++
		case y.Bucket < x.Bucket:
			out = append(out, y)
			j++
		default:
			x.Events += y.Events
			x.Misses += y.Misses
			out = append(out, x)
			i, j = i+1, j+1
		}
	}
	out = append(append(out, a[i:]...), bs[j:]...)
	m.stats, m.spare = out, a
}

// Stats returns the merged statistics. The slice is the merger's live
// accumulator: callers must treat it as read-only once handed out, and
// Merge must not be called after Stats escapes to a reader.
func (m *TallyMerger) Stats() BucketStats {
	return m.stats
}

// Totals returns the merged totals, for boundary cross-checks against a
// unit's own running counts.
func (m *TallyMerger) Totals() (events, misses uint64) {
	return m.stats.Totals()
}
