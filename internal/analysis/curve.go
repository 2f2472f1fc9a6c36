package analysis

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Point is one bucket on a cumulative-misprediction curve. Points are
// ordered worst bucket first, so any prefix of the curve defines a
// low-confidence set: the first CumEventsPct percent of dynamic branches
// capture CumMissesPct percent of all mispredictions.
type Point struct {
	Key          Key     // the bucket
	Rate         float64 // bucket misprediction rate
	EventsPct    float64 // bucket share of dynamic branches (0-100)
	MissesPct    float64 // bucket share of mispredictions (0-100)
	CumEventsPct float64 // cumulative branch share including this bucket
	CumMissesPct float64 // cumulative misprediction share
}

// Curve is a sorted cumulative-misprediction curve: the paper's standard
// presentation of confidence-mechanism quality.
type Curve []Point

// BuildCurve sorts the composite's buckets by misprediction rate (highest
// first, ties broken by bucket identity for determinism) and accumulates
// the cumulative percentages. Buckets with zero weighted events are
// dropped.
func BuildCurve(ws WeightedStats) Curve {
	// Work on a flat (key, tally, rate) view: comparator map lookups on the
	// 128-bit Key are the hot spot otherwise.
	type entry struct {
		key  Key
		t    WTally
		rate float64
	}
	entries := make([]entry, 0, len(ws))
	allRunZero := true
	for k, t := range ws {
		if t.Events > 0 {
			entries = append(entries, entry{key: k, t: *t, rate: t.Rate()})
			allRunZero = allRunZero && k.Run == 0
		}
	}
	if len(entries) == 0 {
		return nil
	}
	// Totals must accumulate in canonical key order to reproduce
	// ws.Totals() bit for bit (float addition is order-sensitive), so sort
	// canonically and sum. The zero-event buckets excluded above each
	// contribute exactly +0.0 to two nonnegative running sums — dropping
	// them cannot change either total's bits. Summing the entries here
	// saves a second map iteration and a probe per key.
	// smallBucketLimit bounds the counting-placement path below: canonical
	// order for a pooled composite over a small bucket space (CIR patterns,
	// counter values — up to 2^16) is recovered in O(n + maxBucket) with a
	// bucket-indexed slot array instead of a comparison sort over the
	// entries. The placement emits exactly ascending-bucket order, so the
	// float accumulation — and every downstream byte — is unchanged.
	// Both orderings below go through an index permutation instead of
	// physically reordering entries: curves over full-CIR composites reach
	// 2^16 48-byte entries, and each avoided reorder is a multi-megabyte
	// copy.
	const smallBucketLimit = 1 << 16
	maxBucket := uint64(0)
	for i := range entries {
		if b := entries[i].key.Bucket; b > maxBucket {
			maxBucket = b
		}
	}
	perm := make([]int32, 0, len(entries)) // canonical rank → entries index
	if allRunZero && maxBucket < smallBucketLimit {
		slots := make([]int32, maxBucket+1) // entry index + 1; 0 = absent
		for i := range entries {
			slots[entries[i].key.Bucket] = int32(i) + 1
		}
		for _, s := range slots {
			if s != 0 {
				perm = append(perm, s-1)
			}
		}
	} else if allRunZero {
		// Pooled composite: Run is uniformly zero, order by bucket alone.
		for i := range entries {
			perm = append(perm, int32(i))
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if entries[a].key.Bucket != entries[b].key.Bucket {
				if entries[a].key.Bucket < entries[b].key.Bucket {
					return -1
				}
				return 1
			}
			return 0
		})
	} else {
		for i := range entries {
			perm = append(perm, int32(i))
		}
		slices.SortFunc(perm, func(a, b int32) int {
			ka, kb := entries[a].key, entries[b].key
			if ka.Run != kb.Run {
				if ka.Run < kb.Run {
					return -1
				}
				return 1
			}
			if ka.Bucket != kb.Bucket {
				if ka.Bucket < kb.Bucket {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	var totalE, totalM float64
	for _, p := range perm {
		totalE += entries[p].t.Events
		totalM += entries[p].t.Misses
	}
	if totalE == 0 {
		return nil
	}
	// Now order worst bucket first. (rate, Run, Bucket) is a unique total
	// order; perm is ascending (Run, Bucket), so the tie-break collapses to
	// ascending canonical rank. Sorting 16-byte (rate-bits, rank) keys
	// compares integers instead of floats: rates are nonnegative (and never
	// NaN — zero-event buckets were dropped), where IEEE 754 order
	// coincides with unsigned order on the bit patterns.
	type rateKey struct {
		bits uint64
		pos  int32 // canonical rank, i.e. index into perm
	}
	keys := make([]rateKey, len(perm))
	for r, p := range perm {
		keys[r] = rateKey{bits: math.Float64bits(entries[p].rate), pos: int32(r)}
	}
	slices.SortFunc(keys, func(a, b rateKey) int {
		if a.bits != b.bits {
			if a.bits > b.bits {
				return -1
			}
			return 1
		}
		if a.pos != b.pos {
			if a.pos < b.pos {
				return -1
			}
			return 1
		}
		return 0
	})
	curve := make(Curve, len(keys))
	var cumE, cumM float64
	for i, rk := range keys {
		e := &entries[perm[rk.pos]]
		k, t := e.key, e.t
		cumE += t.Events
		cumM += t.Misses
		missesPct := 0.0
		if totalM > 0 {
			missesPct = 100 * t.Misses / totalM
		}
		cumMissesPct := 0.0
		if totalM > 0 {
			cumMissesPct = 100 * cumM / totalM
		}
		curve[i] = Point{
			Key:          k,
			Rate:         t.Rate(),
			EventsPct:    100 * t.Events / totalE,
			MissesPct:    missesPct,
			CumEventsPct: 100 * cumE / totalE,
			CumMissesPct: cumMissesPct,
		}
	}
	return curve
}

// BuildCurveOrdered accumulates the composite along a caller-supplied
// bucket order instead of sorting by measured rate. This is how a
// *realistic* (non-optimistic) method is evaluated: the order comes from a
// training run, the statistics from a disjoint evaluation run, so the
// curve shows what a deployed profile actually buys (§2 notes the paper's
// own static curve is optimistic for exactly this reason). Keys absent
// from the composite are skipped; composite keys absent from the order are
// appended afterwards in canonical order (an honest deployment must still
// classify branches the profile never saw — they default to the high
// -confidence tail here).
func BuildCurveOrdered(ws WeightedStats, order []Key) Curve {
	totalE, totalM := ws.Totals()
	if totalE == 0 {
		return nil
	}
	seen := make(map[Key]bool, len(order))
	keys := make([]Key, 0, len(ws))
	for _, k := range order {
		if t := ws[k]; t != nil && t.Events > 0 && !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	for _, k := range ws.sortedKeys() {
		if !seen[k] && ws[k].Events > 0 {
			keys = append(keys, k)
		}
	}
	curve := make(Curve, len(keys))
	var cumE, cumM float64
	for i, k := range keys {
		t := ws[k]
		cumE += t.Events
		cumM += t.Misses
		missesPct, cumMissesPct := 0.0, 0.0
		if totalM > 0 {
			missesPct = 100 * t.Misses / totalM
			cumMissesPct = 100 * cumM / totalM
		}
		curve[i] = Point{
			Key:          k,
			Rate:         t.Rate(),
			EventsPct:    100 * t.Events / totalE,
			MissesPct:    missesPct,
			CumEventsPct: 100 * cumE / totalE,
			CumMissesPct: cumMissesPct,
		}
	}
	return curve
}

// MispredsAt returns the percentage of mispredictions captured by a
// low-confidence set containing pctBranches percent of dynamic branches,
// interpolating linearly between curve points (the paper quotes values
// "at 20 percent of dynamic branches" this way).
//
// Both cumulative columns are non-decreasing (DESIGN §5), so a binary
// search finds the first point reaching pctBranches — the point a scan
// from the worst bucket would stop at — without walking the long
// high-confidence tail.
func (c Curve) MispredsAt(pctBranches float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if pctBranches <= 0 {
		return 0
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].CumEventsPct >= pctBranches })
	if i == len(c) {
		return 100
	}
	prevX, prevY := c.prev(i)
	p := c[i]
	dx := p.CumEventsPct - prevX
	if dx == 0 {
		return p.CumMissesPct
	}
	f := (pctBranches - prevX) / dx
	return prevY + f*(p.CumMissesPct-prevY)
}

// BranchesFor returns the smallest cumulative branch percentage whose
// low-confidence set captures at least pctMisses percent of
// mispredictions — the inverse query of MispredsAt, found by the same
// binary search.
func (c Curve) BranchesFor(pctMisses float64) float64 {
	i := sort.Search(len(c), func(i int) bool { return c[i].CumMissesPct >= pctMisses })
	if i == len(c) {
		return 100
	}
	prevX, prevY := c.prev(i)
	p := c[i]
	dy := p.CumMissesPct - prevY
	if dy == 0 {
		return p.CumEventsPct
	}
	f := (pctMisses - prevY) / dy
	return prevX + f*(p.CumEventsPct-prevX)
}

// prev returns the cumulative coordinates just before point i: the
// previous point's, or the origin for the first.
func (c Curve) prev(i int) (x, y float64) {
	if i == 0 {
		return 0, 0
	}
	return c[i-1].CumEventsPct, c[i-1].CumMissesPct
}

// Keys returns the curve's bucket keys in curve order (worst first) —
// the ranking a training run hands to BuildCurveOrdered for out-of-sample
// evaluation.
func (c Curve) Keys() []Key {
	keys := make([]Key, len(c))
	for i, p := range c {
		keys[i] = p.Key
	}
	return keys
}

// LowSet returns the bucket identities of the low-confidence prefix
// containing at most pctBranches percent of dynamic branches. For pooled
// composites the keys' Run components are all zero and the buckets can
// seed a core.SetReducer, yielding the ideal reduction function tuned on
// this data (§4's idealised method).
func (c Curve) LowSet(pctBranches float64) []uint64 {
	var out []uint64
	for _, p := range c {
		if p.CumEventsPct > pctBranches {
			break
		}
		out = append(out, p.Key.Bucket)
	}
	return out
}

// Thin returns a subsampled curve keeping only points that advance either
// axis by at least minDelta percentage points (plus the final point),
// mirroring the paper's plotting of Figs. 5-7 ("we only plot those points
// that differ from a previous point by 2.5 percent").
func (c Curve) Thin(minDelta float64) Curve {
	if len(c) == 0 {
		return nil
	}
	out := Curve{}
	lastX, lastY := 0.0, 0.0
	for i, p := range c {
		if i == len(c)-1 || p.CumEventsPct-lastX >= minDelta || p.CumMissesPct-lastY >= minDelta {
			out = append(out, p)
			lastX, lastY = p.CumEventsPct, p.CumMissesPct
		}
	}
	return out
}

// WriteDat writes the curve as two-column data (cumulative %branches,
// cumulative %mispredictions) suitable for gnuplot, one point per line.
func (c Curve) WriteDat(w io.Writer) error {
	for _, p := range c {
		if _, err := fmt.Fprintf(w, "%.4f %.4f\n", p.CumEventsPct, p.CumMissesPct); err != nil {
			return err
		}
	}
	return nil
}

// String renders a compact summary with the paper's reference X values.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d points;", len(c))
	for _, x := range []float64{5, 10, 20, 40} {
		fmt.Fprintf(&b, " @%g%%→%.1f%%", x, c.MispredsAt(x))
	}
	return b.String()
}
