package analysis

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"branchconf/internal/xrand"
)

// fixedSeeds are the values AppendFixed is checked at: exact ties, rounding
// carries into a new digit, values at and next to powers of ten (whose
// nearest floats sit on either side of the true power), values below
// 10^-prec and at half of it, the signed zeros and the non-finite values.
var fixedSeeds = []float64{
	0.125, 2.5, 0.5, 1.5, 0.0625, // exact ties
	9.95, 99.96, 0.0996, 9.9999999, 999.9995, // rounding carries
	1, 10, 100, 1e16, 1e17, 0.1, 0.01, 0.001, 1e-6, 1e-7,
	math.Nextafter(0.1, 0), math.Nextafter(0.1, 1), math.Nextafter(1e-3, 0), math.Nextafter(1e-3, 1),
	math.Nextafter(100, 0), math.Nextafter(1e-5, 1),
	0.05, 0.005, 5e-4, 4e-4, math.Nextafter(0.05, 0), math.Nextafter(0.005, 1), 0.7, // below 10^-prec
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	-0.001, -0.004, -0.006, -12.345, 63.2, 89.123456789, 1e300, 5e-324, math.MaxFloat64,
}

func checkAppendFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'f', prec, 64)
	if got := AppendFixed([]byte("x"), v, prec); string(got) != "x"+string(want) {
		t.Fatalf("AppendFixed(%v [%#x], %d) = %q, want %q", v, math.Float64bits(v), prec, got[1:], want)
	}
}

func TestAppendFixedMatchesStrconv(t *testing.T) {
	rng := xrand.New(7)
	for prec := 0; prec <= 6; prec++ {
		for _, v := range fixedSeeds {
			checkAppendFixed(t, v, prec)
			checkAppendFixed(t, -v, prec)
		}
		// The floats next to 10^-prec and to half of it, where rounding
		// below 10^-prec turns.
		for _, v := range []float64{math.Pow10(-prec), math.Pow10(-prec) / 2} {
			lo, hi := v, v
			for i := 0; i < 4; i++ {
				checkAppendFixed(t, lo, prec)
				checkAppendFixed(t, hi, prec)
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			}
		}
		// Report-shaped values: percentages, rates and timings.
		for i := 0; i < 2000; i++ {
			checkAppendFixed(t, 100*float64(rng.Uint64()>>11)/(1<<53), prec)
			checkAppendFixed(t, 0.01*float64(rng.Uint64()>>11)/(1<<53), prec)
		}
	}
}

// FuzzAppendFixed compares AppendFixed with strconv over arbitrary float64
// bit patterns at precisions 0–6.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedSeeds {
		for prec := uint8(0); prec <= 6; prec++ {
			f.Add(math.Float64bits(v), prec)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		checkAppendFixed(t, math.Float64frombits(bits), int(prec%7))
	})
}

// The renderers print the bytes their fmt forms did.
func TestFormattersMatchFmt(t *testing.T) {
	rng := xrand.New(11)
	stats := make(BucketStats)
	for i := 0; i < 400; i++ {
		stats.Add(rng.Uint64()%23, rng.Uint64()%5 == 0)
	}
	c := BuildCurve(Single(stats))
	series := []Series{{Label: "BHRxorPC (ideal)", Curve: c}, {Label: "zeros — ünïcode", Curve: c}, {Label: strings.Repeat("w", 40), Curve: nil}}
	xs := []float64{5, 10, 20, 30, 40, 60, 80, 99.5}
	var want strings.Builder
	fmt.Fprintf(&want, "%s\n", "fig — title")
	fmt.Fprintf(&want, "%-34s", "series \\ %branches")
	for _, x := range xs {
		fmt.Fprintf(&want, "%8.0f", x)
	}
	want.WriteByte('\n')
	for _, s := range series {
		fmt.Fprintf(&want, "%-34s", s.Label)
		for _, x := range xs {
			fmt.Fprintf(&want, "%8.1f", s.Curve.MispredsAt(x))
		}
		want.WriteByte('\n')
	}
	if got := FormatFigure("fig — title", series, xs); got != want.String() {
		t.Fatalf("FormatFigure:\n%s\nwant:\n%s", got, want.String())
	}

	rows := CounterRows(CompositePooled([]BucketStats{stats}), 22)
	rows = append(rows, TableRow{Count: 123456, MissRate: 12.5, RefsPct: 1234.5678, CumMissesPct: math.NaN()})
	want.Reset()
	want.WriteString("Count  Mis%pred.  %Refs  %Mispreds  Cum.%Refs  Cum.%Mispreds\n")
	for _, r := range rows {
		fmt.Fprintf(&want, "%5d  %9.3f  %5.2f  %9.2f  %9.2f  %13.1f\n",
			r.Count, 100*r.MissRate, r.RefsPct, r.MissesPct, r.CumRefsPct, r.CumMissesPct)
	}
	if got := FormatCounterTable(rows); got != want.String() {
		t.Fatalf("FormatCounterTable:\n%s\nwant:\n%s", got, want.String())
	}
}

func BenchmarkAppendFixed(b *testing.B) {
	vals := []float64{63.21, 0.0412, 89.1234, 100, 7.5}
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = AppendFixed(buf[:0], vals[i%len(vals)], 1+i%3)
	}
}
