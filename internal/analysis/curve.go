package analysis

import (
	"cmp"
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
	// (rate, Run, Bucket) is a unique total order; ws is in canonical
	// (Run, Bucket) order, so the tie-break is ascending position in ws.
	// Sorting 16-byte (rate-bits, position) keys compares integers instead
	// of floats: rates are nonnegative (and never NaN — zero-event buckets
	// are dropped), where IEEE 754 order coincides with unsigned order on
	// the bit patterns.
	type rateKey struct {
		bits uint64
		pos  int32 // index into ws
	}
	keys := make([]rateKey, 0, len(ws))
	// The totals accumulate in canonical order, as ws.Totals does; the
	// dropped zero-event buckets would each add +0.0 to both sums.
	var totalE, totalM float64
	for i, t := range ws {
		if t.Events > 0 {
			totalE += t.Events
			totalM += t.Misses
			keys = append(keys, rateKey{bits: math.Float64bits(t.Rate()), pos: int32(i)})
		}
	}
	if len(keys) == 0 {
		return nil
	}
	slices.SortFunc(keys, func(a, b rateKey) int {
		if c := cmp.Compare(b.bits, a.bits); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	curve := make(Curve, len(keys))
	var cumE, cumM float64
	for i, rk := range keys {
		t := &ws[rk.pos]
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
			Key:          t.Key,
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
	seen := make([]bool, len(ws))
	idx := make([]int, 0, len(ws))
	for _, k := range order {
		if i, ok := ws.index(k); ok && ws[i].Events > 0 && !seen[i] {
			idx = append(idx, i)
			seen[i] = true
		}
	}
	for i, t := range ws {
		if !seen[i] && t.Events > 0 {
			idx = append(idx, i)
		}
	}
	curve := make(Curve, len(idx))
	var cumE, cumM float64
	for n, i := range idx {
		t := &ws[i]
		cumE += t.Events
		cumM += t.Misses
		missesPct, cumMissesPct := 0.0, 0.0
		if totalM > 0 {
			missesPct = 100 * t.Misses / totalM
			cumMissesPct = 100 * cumM / totalM
		}
		curve[n] = Point{
			Key:          t.Key,
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
