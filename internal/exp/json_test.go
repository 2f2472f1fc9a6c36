package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	e, _ := ByID("table1")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != o.ID || back.Title != o.Title {
		t.Fatalf("identity lost: %q/%q", back.ID, back.Title)
	}
	if len(back.Rows) != len(o.Rows) {
		t.Fatalf("rows %d vs %d", len(back.Rows), len(o.Rows))
	}
	for i := range o.Rows {
		if math.Abs(back.Rows[i].CumMissesPct-o.Rows[i].CumMissesPct) > 1e-9 {
			t.Fatalf("row %d cum misses %.4f vs %.4f", i, back.Rows[i].CumMissesPct, o.Rows[i].CumMissesPct)
		}
	}
	for k, v := range o.Scalars {
		if math.Abs(back.Scalars[k]-v) > 1e-9 {
			t.Fatalf("scalar %s: %v vs %v", k, back.Scalars[k], v)
		}
	}
}

func TestJSONCurveRoundTrip(t *testing.T) {
	e, _ := ByID("fig2")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != 1 {
		t.Fatalf("%d series", len(back.Series))
	}
	// MispredsAt evaluates identically after the round trip.
	orig, rt := o.Series[0].Curve, back.Series[0].Curve
	for _, x := range []float64{5, 20, 50, 90} {
		if math.Abs(orig.MispredsAt(x)-rt.MispredsAt(x)) > 1e-9 {
			t.Fatalf("MispredsAt(%v) diverged", x)
		}
	}
}

func TestJSONThinning(t *testing.T) {
	e, _ := ByID("fig2")
	o, err := e.Run(NewSession(fastCfg))
	if err != nil {
		t.Fatal(err)
	}
	var full, thin bytes.Buffer
	if err := o.WriteJSON(&full, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSON(&thin, 2.5); err != nil {
		t.Fatal(err)
	}
	if thin.Len() >= full.Len() {
		t.Fatalf("thinned output (%d bytes) not smaller than full (%d)", thin.Len(), full.Len())
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}
