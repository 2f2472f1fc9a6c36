// Package analysis turns raw per-bucket confidence statistics into the
// paper's artefacts: sorted cumulative-misprediction curves (Figures 2 and
// 5-11), threshold tables (Table 1), and low-confidence bucket sets for
// deriving ideal reduction functions.
//
// The method, following Sections 2 and 4: collect (events, mispredictions)
// per bucket — a static branch PC, a CIR pattern, or a counter value —
// weight benchmarks so each contributes the same number of dynamic
// branches, sort buckets by misprediction rate (highest first), and plot
// cumulative mispredictions against cumulative dynamic branches.
//
// Histograms are slices in bucket order from the engine's fill kernels to
// the curve: a run's BucketStats ascends by bucket and a composite's
// WeightedStats by (run, bucket), so every consumer is one ordered walk
// and every float sum runs in that canonical order.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
)

// Tally counts dynamic branches and mispredictions for one bucket.
type Tally struct {
	Events uint64
	Misses uint64
}

// Rate returns the bucket's misprediction rate.
func (t Tally) Rate() float64 {
	if t.Events == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Events)
}

// BucketTally is one bucket's tally within a run's histogram.
type BucketTally struct {
	Bucket uint64
	Tally
}

// BucketStats is one simulation run's histogram: a tally per occupied
// bucket, in strictly ascending bucket order. Every producer emits that
// order, and every consumer relies on it; a BucketStats is immutable once
// built, so runs share them freely.
type BucketStats []BucketTally

// Totals returns the run's total events and mispredictions.
func (bs BucketStats) Totals() (events, misses uint64) {
	for _, t := range bs {
		events += t.Events
		misses += t.Misses
	}
	return events, misses
}

// MissRate returns the run's overall misprediction rate.
func (bs BucketStats) MissRate() float64 {
	e, m := bs.Totals()
	if e == 0 {
		return 0
	}
	return float64(m) / float64(e)
}

// TallyMap accumulates one run's tallies from branches arriving in any
// bucket order — a straight-line walk's buckets over a sparse space, such
// as static branch addresses. Stats hands the result on as a BucketStats.
type TallyMap map[uint64]*Tally

// Add records one dynamic branch landing in bucket, with its prediction
// correctness.
func (tm TallyMap) Add(bucket uint64, incorrect bool) {
	t := tm[bucket]
	if t == nil {
		t = &Tally{}
		tm[bucket] = t
	}
	t.Events++
	if incorrect {
		t.Misses++
	}
}

// Stats returns the accumulated tallies in ascending bucket order.
func (tm TallyMap) Stats() BucketStats {
	bs := make(BucketStats, 0, len(tm))
	for b, t := range tm {
		bs = append(bs, BucketTally{Bucket: b, Tally: *t})
	}
	slices.SortFunc(bs, func(a, b BucketTally) int { return cmp.Compare(a.Bucket, b.Bucket) })
	return bs
}

// Key identifies a bucket within a composite: Run disambiguates buckets
// from different benchmarks when their identities must stay distinct (the
// static method, where PC spaces overlap across benchmarks); pooled
// composites use Run == 0 for every bucket.
type Key struct {
	Run    int
	Bucket uint64
}

// compare orders keys canonically: by Run, then by Bucket.
func (k Key) compare(o Key) int {
	if c := cmp.Compare(k.Run, o.Run); c != 0 {
		return c
	}
	return cmp.Compare(k.Bucket, o.Bucket)
}

// WTally is a weighted tally: fractional events and misses after
// equal-weight benchmark compositing.
type WTally struct {
	Events float64
	Misses float64
}

// Rate returns the weighted misprediction rate.
func (t WTally) Rate() float64 {
	if t.Events == 0 {
		return 0
	}
	return t.Misses / t.Events
}

// WeightedTally is one composite bucket's weighted tally.
type WeightedTally struct {
	Key
	WTally
}

// WeightedStats is a composite of per-benchmark bucket statistics: a
// weighted tally per bucket in strictly ascending (Run, Bucket) order —
// the canonical order. Floating-point addition is not associative, so
// every float accumulation over a composite runs in this order, which
// keeps experiment outputs byte-reproducible.
type WeightedStats []WeightedTally

// index returns the position of k in ws, and whether it is present.
func (ws WeightedStats) index(k Key) (int, bool) {
	return slices.BinarySearchFunc(ws, k, func(t WeightedTally, k Key) int { return t.Key.compare(k) })
}

// compositeWeight returns the per-event weight that makes run bs contribute
// exactly 1.0 total event mass.
func compositeWeight(bs BucketStats) float64 {
	events, _ := bs.Totals()
	if events == 0 {
		return 0
	}
	return 1 / float64(events)
}

// CompositePooled combines runs with equal dynamic-branch weight, pooling
// identical buckets across runs — the paper's treatment of dynamic
// mechanisms, where a CIR pattern means the same thing in every benchmark
// (§1.2, §4). It merges the runs' ascending bucket sequences in one walk;
// each bucket's weighted sums accumulate in run order.
func CompositePooled(runs []BucketStats) WeightedStats {
	size := 0
	weights := make([]float64, len(runs))
	for i, bs := range runs {
		size = max(size, len(bs))
		weights[i] = compositeWeight(bs)
	}
	ws := make(WeightedStats, 0, size)
	pos := make([]int, len(runs)) // each run's next unmerged entry
	for {
		bucket, ok := nextBucket(runs, pos)
		if !ok {
			return ws
		}
		var wt WTally
		for i, bs := range runs {
			if p := pos[i]; p < len(bs) && bs[p].Bucket == bucket {
				wt.Events += weights[i] * float64(bs[p].Events)
				wt.Misses += weights[i] * float64(bs[p].Misses)
				pos[i]++
			}
		}
		ws = append(ws, WeightedTally{Key: Key{Bucket: bucket}, WTally: wt})
	}
}

// nextBucket returns the smallest bucket at the runs' merge positions,
// and false once every run is exhausted.
func nextBucket(runs []BucketStats, pos []int) (uint64, bool) {
	var next uint64
	ok := false
	for i, bs := range runs {
		if p := pos[i]; p < len(bs) && (!ok || bs[p].Bucket < next) {
			next, ok = bs[p].Bucket, true
		}
	}
	return next, ok
}

// CompositeDistinct combines runs with equal weight while keeping each
// run's buckets distinct — required for the static method, where bucket
// identity is a branch address private to one benchmark (§2).
func CompositeDistinct(runs []BucketStats) WeightedStats {
	total := 0
	for _, bs := range runs {
		total += len(bs)
	}
	ws := make(WeightedStats, 0, total)
	for i, bs := range runs {
		w := compositeWeight(bs)
		for _, t := range bs {
			ws = append(ws, WeightedTally{
				Key:    Key{Run: i, Bucket: t.Bucket},
				WTally: WTally{Events: w * float64(t.Events), Misses: w * float64(t.Misses)},
			})
		}
	}
	return ws
}

// Single wraps one run as a WeightedStats without reweighting, for
// per-benchmark curves (Figure 9).
func Single(bs BucketStats) WeightedStats {
	ws := make(WeightedStats, len(bs))
	for i, t := range bs {
		ws[i] = WeightedTally{
			Key:    Key{Bucket: t.Bucket},
			WTally: WTally{Events: float64(t.Events), Misses: float64(t.Misses)},
		}
	}
	return ws
}

// MergeBuckets rewrites bucket identities through fn, merging tallies that
// map to the same value. Because a reduction function is a pure function
// of the bucket, this derives a reduced mechanism's statistics from the
// full-CIR run — e.g. fn = popcount turns per-pattern statistics into
// ones-count statistics (§5.1) without re-simulating. fn may reorder and
// collide buckets, so the rewritten keys are sorted; each merged tally
// sums its sources in canonical order.
func (ws WeightedStats) MergeBuckets(fn func(uint64) uint64) WeightedStats {
	type source struct {
		key Key   // the rewritten key
		pos int32 // canonical rank of the source tally
	}
	srcs := make([]source, len(ws))
	for i, t := range ws {
		srcs[i] = source{key: Key{Run: t.Run, Bucket: fn(t.Bucket)}, pos: int32(i)}
	}
	slices.SortFunc(srcs, func(a, b source) int {
		if c := a.key.compare(b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	var out WeightedStats
	for _, s := range srcs {
		t := ws[s.pos].WTally
		if n := len(out); n > 0 && out[n-1].Key == s.key {
			out[n-1].Events += t.Events
			out[n-1].Misses += t.Misses
			continue
		}
		out = append(out, WeightedTally{Key: s.key, WTally: t})
	}
	return out
}

// Totals returns the composite's total weighted events and misses,
// summed in canonical order.
func (ws WeightedStats) Totals() (events, misses float64) {
	for _, t := range ws {
		events += t.Events
		misses += t.Misses
	}
	return events, misses
}

// MissRate returns the composite's overall misprediction rate.
func (ws WeightedStats) MissRate() float64 {
	e, m := ws.Totals()
	if e == 0 {
		return 0
	}
	return m / e
}

// String summarises the composite.
func (ws WeightedStats) String() string {
	e, m := ws.Totals()
	return fmt.Sprintf("%d buckets, %.3f events, miss rate %.4f", len(ws), e, m/e)
}
