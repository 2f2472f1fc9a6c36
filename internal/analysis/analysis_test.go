package analysis

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTallyRate(t *testing.T) {
	if (Tally{}).Rate() != 0 {
		t.Fatal("empty tally rate")
	}
	if got := (Tally{Events: 4, Misses: 1}).Rate(); got != 0.25 {
		t.Fatalf("rate %v", got)
	}
}

func TestBucketStatsAdd(t *testing.T) {
	tm := make(TallyMap)
	tm.Add(2, false)
	tm.Add(1, true)
	tm.Add(1, false)
	bs := tm.Stats()
	e, m := bs.Totals()
	if e != 3 || m != 1 {
		t.Fatalf("totals %d/%d", e, m)
	}
	if bs[0] != (BucketTally{Bucket: 1, Tally: Tally{Events: 2, Misses: 1}}) {
		t.Fatalf("bucket 1 %+v", bs[0])
	}
	if bs[1].Bucket != 2 {
		t.Fatalf("buckets out of order: %+v", bs)
	}
	if got := bs.MissRate(); !approx(got, 1.0/3, 1e-12) {
		t.Fatalf("miss rate %v", got)
	}
}

func TestCompositePooledEqualWeight(t *testing.T) {
	// Run A: 100 events; Run B: 1000 events. After compositing each must
	// contribute exactly 1.0 event mass.
	a, b := make(TallyMap), make(TallyMap)
	for i := 0; i < 100; i++ {
		a.Add(7, i < 10) // 10% misses
	}
	for i := 0; i < 1000; i++ {
		b.Add(7, i < 500) // 50% misses
	}
	ws := CompositePooled([]BucketStats{a.Stats(), b.Stats()})
	if len(ws) != 1 {
		t.Fatalf("%d buckets, want pooled 1", len(ws))
	}
	e, m := ws.Totals()
	if !approx(e, 2, 1e-9) {
		t.Fatalf("event mass %v, want 2", e)
	}
	// Pooled rate must be the equal-weight average of 10% and 50%.
	if !approx(m/e, 0.3, 1e-9) {
		t.Fatalf("pooled rate %v, want 0.3", m/e)
	}
}

func TestCompositeDistinctKeepsRunsApart(t *testing.T) {
	a, b := make(TallyMap), make(TallyMap)
	a.Add(7, true)
	b.Add(7, false)
	ws := CompositeDistinct([]BucketStats{a.Stats(), b.Stats()})
	if len(ws) != 2 {
		t.Fatalf("%d buckets, want 2 distinct", len(ws))
	}
	if at(ws, Key{Run: 0, Bucket: 7}).Rate() != 1 || at(ws, Key{Run: 1, Bucket: 7}).Rate() != 0 {
		t.Fatal("runs merged")
	}
}

func TestSingleKeepsRawCounts(t *testing.T) {
	bs := make(TallyMap)
	for i := 0; i < 10; i++ {
		bs.Add(3, i == 0)
	}
	ws := Single(bs.Stats())
	e, m := ws.Totals()
	if e != 10 || m != 1 {
		t.Fatalf("totals %v/%v", e, m)
	}
}

func mkStats(pairs ...[2]uint64) BucketStats {
	// pairs of (events, misses) assigned to buckets 0,1,2,...
	bs := make(TallyMap)
	for i, p := range pairs {
		for e := uint64(0); e < p[0]; e++ {
			bs.Add(uint64(i), e < p[1])
		}
	}
	return bs.Stats()
}

// at returns ws's tally for k, or nil when k is absent.
func at(ws WeightedStats, k Key) *WTally {
	if i, ok := ws.index(k); ok {
		return &ws[i].WTally
	}
	return nil
}

func TestBuildCurveOrdering(t *testing.T) {
	// bucket 0: rate 0.5, bucket 1: rate 0.1, bucket 2: rate 0.9.
	bs := mkStats([2]uint64{10, 5}, [2]uint64{10, 1}, [2]uint64{10, 9})
	c := BuildCurve(Single(bs))
	if len(c) != 3 {
		t.Fatalf("%d points", len(c))
	}
	if c[0].Key.Bucket != 2 || c[1].Key.Bucket != 0 || c[2].Key.Bucket != 1 {
		t.Fatalf("order %v %v %v", c[0].Key, c[1].Key, c[2].Key)
	}
	// Terminal point is (100, 100).
	last := c[len(c)-1]
	if !approx(last.CumEventsPct, 100, 1e-9) || !approx(last.CumMissesPct, 100, 1e-9) {
		t.Fatalf("terminal point (%v, %v)", last.CumEventsPct, last.CumMissesPct)
	}
}

func TestCurveMonotone(t *testing.T) {
	check := func(events []uint16, missBits []uint16) bool {
		n := len(events)
		if len(missBits) < n {
			n = len(missBits)
		}
		if n == 0 {
			return true
		}
		bs := make(TallyMap)
		for i := 0; i < n; i++ {
			e := uint64(events[i]%50) + 1
			m := uint64(missBits[i]) % (e + 1)
			for j := uint64(0); j < e; j++ {
				bs.Add(uint64(i), j < m)
			}
		}
		c := BuildCurve(Single(bs.Stats()))
		prevX, prevY, prevRate := 0.0, 0.0, math.Inf(1)
		for _, p := range c {
			if p.CumEventsPct < prevX-1e-9 || p.CumMissesPct < prevY-1e-9 {
				return false
			}
			if p.Rate > prevRate+1e-9 {
				return false // sorted by rate desc
			}
			prevX, prevY, prevRate = p.CumEventsPct, p.CumMissesPct, p.Rate
		}
		return approx(prevX, 100, 1e-6) && (prevY == 0 || approx(prevY, 100, 1e-6))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (optimality of the ideal reduction): sorting buckets by
// misprediction rate dominates any other ordering — at every prefix event
// mass, the sorted curve captures at least as many mispredictions.
func TestSortedOrderingDominates(t *testing.T) {
	check := func(events []uint16, missBits []uint16, shuffleSeed uint16) bool {
		n := len(events)
		if len(missBits) < n {
			n = len(missBits)
		}
		if n < 2 {
			return true
		}
		bs := make(TallyMap)
		for i := 0; i < n; i++ {
			e := uint64(events[i]%50) + 1
			m := uint64(missBits[i]) % (e + 1)
			for j := uint64(0); j < e; j++ {
				bs.Add(uint64(i), j < m)
			}
		}
		ws := Single(bs.Stats())
		sorted := BuildCurve(ws)
		// An arbitrary alternative ordering: by bucket id, rotated.
		keys := make([]Key, 0, len(ws))
		for _, t := range ws {
			keys = append(keys, t.Key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Bucket < keys[j].Bucket })
		rot := int(shuffleSeed) % len(keys)
		keys = append(keys[rot:], keys[:rot]...)
		totalE, totalM := ws.Totals()
		var cumE, cumM float64
		for _, k := range keys {
			cumE += at(ws, k).Events
			cumM += at(ws, k).Misses
			x := 100 * cumE / totalE
			y := 0.0
			if totalM > 0 {
				y = 100 * cumM / totalM
			}
			if sorted.MispredsAt(x) < y-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMispredsAtInterpolation(t *testing.T) {
	// Two buckets: first covers 50% of events and 100% of misses.
	bs := mkStats([2]uint64{10, 10}, [2]uint64{10, 0})
	c := BuildCurve(Single(bs))
	if got := c.MispredsAt(25); !approx(got, 50, 1e-9) {
		t.Fatalf("MispredsAt(25) = %v, want 50 (linear)", got)
	}
	if got := c.MispredsAt(50); !approx(got, 100, 1e-9) {
		t.Fatalf("MispredsAt(50) = %v", got)
	}
	if got := c.MispredsAt(75); !approx(got, 100, 1e-9) {
		t.Fatalf("MispredsAt(75) = %v", got)
	}
	if got := c.MispredsAt(0); got != 0 {
		t.Fatalf("MispredsAt(0) = %v", got)
	}
	if got := c.MispredsAt(200); got != 100 {
		t.Fatalf("MispredsAt(200) = %v", got)
	}
}

func TestBranchesForInverse(t *testing.T) {
	bs := mkStats([2]uint64{10, 10}, [2]uint64{10, 0})
	c := BuildCurve(Single(bs))
	if got := c.BranchesFor(50); !approx(got, 25, 1e-9) {
		t.Fatalf("BranchesFor(50) = %v, want 25", got)
	}
	if got := c.BranchesFor(100); !approx(got, 50, 1e-9) {
		t.Fatalf("BranchesFor(100) = %v, want 50", got)
	}
}

func TestLowSet(t *testing.T) {
	// buckets by rate: 2 (0.9, 25% events), 0 (0.5, 25%), 1 (0.1, 50%).
	bs := mkStats([2]uint64{10, 5}, [2]uint64{20, 2}, [2]uint64{10, 9})
	c := BuildCurve(Single(bs))
	set := c.LowSet(50)
	if len(set) != 2 || set[0] != 2 || set[1] != 0 {
		t.Fatalf("LowSet(50) = %v, want [2 0]", set)
	}
	if got := c.LowSet(10); len(got) != 0 {
		t.Fatalf("LowSet(10) = %v, want empty (first bucket is 25%%)", got)
	}
}

func TestThin(t *testing.T) {
	// 100 buckets of 1% each, equal rates ⇒ thinning at 10 keeps ~10 points.
	bs := make(TallyMap)
	for i := 0; i < 100; i++ {
		bs.Add(uint64(i), i%2 == 0)
		bs.Add(uint64(i), false)
	}
	c := BuildCurve(Single(bs.Stats()))
	thin := c.Thin(10)
	// First half of the curve advances misses 2%/point (kept every 5th),
	// second half advances events 1%/point (kept every 10th): ~15 points.
	if len(thin) < 12 || len(thin) > 17 {
		t.Fatalf("thinned to %d points", len(thin))
	}
	// Final point preserved.
	if thin[len(thin)-1].CumEventsPct != c[len(c)-1].CumEventsPct {
		t.Fatal("thinning dropped the terminal point")
	}
}

func TestWriteDat(t *testing.T) {
	bs := mkStats([2]uint64{10, 5}, [2]uint64{10, 1})
	c := BuildCurve(Single(bs))
	var sb strings.Builder
	if err := c.WriteDat(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.Contains(lines[1], "100.0000 100.0000") {
		t.Fatalf("last line %q", lines[1])
	}
}

func TestCounterRows(t *testing.T) {
	// Counter values 0..2: value 0 rare but hot, value 2 huge and cold —
	// a miniature Table 1.
	bs := make(TallyMap)
	for i := 0; i < 10; i++ {
		bs.Add(0, i < 4) // 40% miss
	}
	for i := 0; i < 30; i++ {
		bs.Add(1, i < 3) // 10% miss
	}
	for i := 0; i < 60; i++ {
		bs.Add(2, i < 3) // 5% miss
	}
	rows := CounterRows(CompositePooled([]BucketStats{bs.Stats()}), 2)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Count != 0 || !approx(rows[0].MissRate, 0.4, 1e-9) {
		t.Fatalf("row0 %+v", rows[0])
	}
	if !approx(rows[0].RefsPct, 10, 1e-9) || !approx(rows[0].MissesPct, 40, 1e-9) {
		t.Fatalf("row0 pct %+v", rows[0])
	}
	if !approx(rows[2].CumRefsPct, 100, 1e-9) || !approx(rows[2].CumMissesPct, 100, 1e-9) {
		t.Fatalf("cumulative end %+v", rows[2])
	}
	// Cumulative columns are monotone.
	for i := 1; i < len(rows); i++ {
		if rows[i].CumRefsPct < rows[i-1].CumRefsPct || rows[i].CumMissesPct < rows[i-1].CumMissesPct {
			t.Fatalf("non-monotone cumulative at row %d", i)
		}
	}
}

func TestCounterRowsMissingBuckets(t *testing.T) {
	bs := make(TallyMap)
	bs.Add(0, true)
	rows := CounterRows(CompositePooled([]BucketStats{bs.Stats()}), 4)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[3].RefsPct != 0 || rows[3].CumRefsPct != 100 {
		t.Fatalf("empty bucket row %+v", rows[3])
	}
}

func TestFormatters(t *testing.T) {
	bs := mkStats([2]uint64{10, 5}, [2]uint64{10, 1})
	c := BuildCurve(Single(bs))
	fig := FormatFigure("Fig X", []Series{{Label: "test", Curve: c}}, []float64{20, 50})
	if !strings.Contains(fig, "Fig X") || !strings.Contains(fig, "test") {
		t.Fatalf("figure format:\n%s", fig)
	}
	rows := CounterRows(CompositePooled([]BucketStats{bs}), 1)
	tbl := FormatCounterTable(rows)
	if !strings.Contains(tbl, "Count") || len(strings.Split(strings.TrimSpace(tbl), "\n")) != 3 {
		t.Fatalf("table format:\n%s", tbl)
	}
	if c.String() == "" || (WeightedStats{}).String() == "" {
		t.Fatal("empty summaries")
	}
}

func TestBuildCurveEmpty(t *testing.T) {
	if BuildCurve(WeightedStats{}) != nil {
		t.Fatal("empty stats produced a curve")
	}
	var c Curve
	if c.MispredsAt(20) != 0 {
		t.Fatal("empty curve MispredsAt")
	}
}
