package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must not rely on order
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A "p99" over five ops is just the maximum: it must not be reported.
func TestFiveOpsReportOnlyTheMedian(t *testing.T) {
	xs := []float64{2.1, 2.4, 2.2, 3.4, 2.3}
	s := Summarize(xs, 90, 99)
	if s.N != 5 || s.Median != 2.3 || len(s.Tails) != 0 {
		t.Fatalf("Summarize(5 ops) = %+v, want n=5, median 2.3 and no tails", s)
	}
	if v, honest := Percentile(xs, 99); v != 3.4 || honest {
		t.Fatalf("Percentile(5 ops, 99) = %v, %v; want the maximum, flagged dishonest", v, honest)
	}
}

// A tail is reported exactly when at least ten samples lie beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false},
		{100, 90, true},
		{999, 99, false},
		{1000, 99, true},
	} {
		s := Summarize(seq(c.n), c.p)
		_, got := s.Tails[percentileName(c.p)]
		if got != c.want {
			t.Errorf("n=%d p%v reported=%v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := Summarize(seq(1000), 50, 90, 99)
	if s.Tails["p99"] != 990 || s.Tails["p90"] != 900 || s.Tails["p50"] != 500 {
		t.Errorf("nearest-rank tails over 1..1000 = %v", s.Tails)
	}
}

func TestStripTimingsMatchesNoTimings(t *testing.T) {
	timed := "# Paper reproduction report\n\nPer-benchmark branch budget: 50000\n\n" +
		"## fig2 — T\n\nPaper: p\n\n```\nx\n```\n\n_(ran in 0.1s)_\n\n" +
		"## fig5 — U\n\nPaper: q\n\n```\ny\n```\n\n_(ran in 12.3s)_\n\n"
	plain := "# Paper reproduction report\n\nPer-benchmark branch budget: 50000\n\n" +
		"## fig2 — T\n\nPaper: p\n\n```\nx\n```\n\n" +
		"## fig5 — U\n\nPaper: q\n\n```\ny\n```\n\n"
	if got := string(StripTimings([]byte(timed))); got != plain {
		t.Fatalf("StripTimings:\n%q\nwant\n%q", got, plain)
	}
	if Digest(StripTimings([]byte(plain))) != Digest([]byte(plain)) {
		t.Fatal("StripTimings changed a report without timing lines")
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		{Name: "client", Layer: "transport", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "handler", Layer: "serve", Start: 2 * ms, End: 9 * ms, Parent: 0},
		{Name: "drain", Layer: "serve", Start: 12 * ms, End: 15 * ms, Parent: -1},
	}
	self := SelfTimes(spans)
	for layer, want := range map[string]float64{"transport": 0.003, "serve": 0.010} {
		if math.Abs(self[layer]-want) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}
	total := 0.0
	for _, v := range self {
		total += v
	}
	if c := Covered(spans); math.Abs(c-0.013) > 1e-12 || math.Abs(total-c) > 1e-12 {
		t.Errorf("Covered = %v, self total %v; want both 0.013", c, total)
	}
}

// A span the code under test timed itself must nest in the span open
// around that code.
func TestEndedNestsInItsParent(t *testing.T) {
	r := NewRecorder("op")
	outer := r.Begin("outer", "serve", -1)
	time.Sleep(2 * time.Millisecond)
	r.Ended("inner", "exp", outer, 0.001)
	r.End(outer)
	spans := r.Spans()
	o, in := spans[0], spans[1]
	if in.Parent != outer || in.End-in.Start != 1e6 || in.Start < o.Start || in.End > o.End {
		t.Fatalf("inner %+v does not nest in outer %+v", in, o)
	}
}

func TestChromeTrace(t *testing.T) {
	r := NewRecorder("op")
	outer := r.Begin("outer", "exp", -1)
	r.Do("inner", "sim", outer, func() error { return nil })
	r.End(outer)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TracedOp{{Name: "op", Offset: 1.5, Spans: r.Spans()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Ts < 1.5e6 {
			t.Errorf("%s starts at %vµs, before the op's offset", ev.Name, ev.Ts)
		}
		if ev.Name == "inner" && ev.Args["parent"] != "outer" {
			t.Errorf("inner's parent = %q, want outer", ev.Args["parent"])
		}
	}
	if complete != 2 {
		t.Fatalf("%d complete events, want 2", complete)
	}
}

func TestFigureOrderIsSeeded(t *testing.T) {
	a := FigureOrder(7)
	if !reflect.DeepEqual(a, FigureOrder(7)) {
		t.Fatal("the same seed gave two orders")
	}
	sorted, want := append([]string(nil), a...), append([]string(nil), FigureIDs...)
	sort.Strings(sorted)
	sort.Strings(want)
	if !reflect.DeepEqual(sorted, want) {
		t.Fatalf("order %v is not a permutation of %v", a, FigureIDs)
	}
	differs := false
	for s := int64(0); s < 8 && !differs; s++ {
		differs = !reflect.DeepEqual(FigureOrder(s), a)
	}
	if !differs {
		t.Fatal("every seed gives the same order")
	}
}
