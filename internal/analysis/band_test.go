package analysis

import (
	"strings"
	"testing"
)

func bandCurves() []Curve {
	mk := func(hotMisses uint64) Curve {
		bs := make(TallyMap)
		for i := uint64(0); i < 100; i++ {
			bs.Add(0, i < hotMisses) // hot bucket, 10% of events
		}
		for i := 0; i < 900; i++ {
			bs.Add(1, i < 10)
		}
		return BuildCurve(Single(bs.Stats()))
	}
	return []Curve{mk(90), mk(50), mk(20)}
}

func TestBuildBand(t *testing.T) {
	curves := bandCurves()
	b := BuildBand(curves, []float64{10, 20, 50})
	if len(b.Min) != 3 || len(b.Max) != 3 || len(b.Mean) != 3 {
		t.Fatal("band lengths")
	}
	for i := range b.Xs {
		if b.Min[i] > b.Mean[i] || b.Mean[i] > b.Max[i] {
			t.Fatalf("x=%v: min %.1f mean %.1f max %.1f not ordered",
				b.Xs[i], b.Min[i], b.Mean[i], b.Max[i])
		}
	}
	// Curve 0 (most concentrated) should attain the max at x=10.
	if b.ArgMax[0] != 0 {
		t.Fatalf("ArgMax[0] = %d", b.ArgMax[0])
	}
	if b.ArgMin[0] != 2 {
		t.Fatalf("ArgMin[0] = %d", b.ArgMin[0])
	}
	if b.Spread(10) <= 0 {
		t.Fatalf("spread %v", b.Spread(10))
	}
}

func TestBandFormat(t *testing.T) {
	b := BuildBand(bandCurves(), []float64{20})
	out := b.Format([]string{"alpha", "beta", "gamma"})
	if !strings.Contains(out, "alpha") && !strings.Contains(out, "gamma") {
		t.Fatalf("format lacks benchmark names:\n%s", out)
	}
	if !strings.Contains(out, "min") {
		t.Fatal("missing header")
	}
}

func TestBandEmpty(t *testing.T) {
	b := BuildBand(nil, []float64{20})
	if b.Spread(20) != 0 {
		t.Fatal("empty band spread nonzero")
	}
	bNoXs := BuildBand(bandCurves(), nil)
	if bNoXs.Spread(20) != 0 {
		t.Fatal("no-xs band spread nonzero")
	}
}
