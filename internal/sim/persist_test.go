package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// buildAnnotated returns a real annotated stream for the codec tests:
// stateful (gshare carries a counter-state lane) or stateless.
func buildAnnotated(t *testing.T, withState bool) *AnnotatedStream {
	t.Helper()
	flat := annotateBuffer(t, 20000).Flatten()
	if withState {
		return Annotate(flat, predictor.Gshare64K())
	}
	return Annotate(flat, predictor.NewBimodal(10)) // no StateAnnotator: no lane
}

func TestAnnotatedStreamCodecRoundTrip(t *testing.T) {
	for _, withState := range []bool{true, false} {
		ann := buildAnnotated(t, withState)
		if ann.HasState() != withState {
			t.Fatalf("HasState = %v, want %v", ann.HasState(), withState)
		}
		payload := marshalAnnotatedStream(ann)
		got, err := unmarshalAnnotatedStream(payload)
		if err != nil {
			t.Fatalf("state=%v: %v", withState, err)
		}
		if got.n != ann.n || got.misses != ann.misses || got.HasState() != withState {
			t.Fatalf("state=%v: decoded shape (n=%d misses=%d state=%v), want (%d, %d, %v)",
				withState, got.n, got.misses, got.HasState(), ann.n, ann.misses, withState)
		}
		for i := 0; i < ann.n; i++ {
			if got.miss.Bit(i) != ann.miss.Bit(i) {
				t.Fatalf("state=%v: mispredict bit %d differs", withState, i)
			}
		}
		if withState {
			for i := 0; i < ann.n; i++ {
				if got.state.At(i) != ann.state.At(i) {
					t.Fatalf("state lane entry %d differs", i)
				}
			}
		}
		// Canonical encoding: marshal(unmarshal(p)) == p.
		if !bytes.Equal(marshalAnnotatedStream(got), payload) {
			t.Fatalf("state=%v: re-marshalled payload differs", withState)
		}
	}
}

func TestAnnotatedStreamCodecRejectsDamage(t *testing.T) {
	ann := buildAnnotated(t, true)
	payload := marshalAnnotatedStream(ann)
	for n := 0; n < len(payload); n += 7 { // step keeps the walk fast
		if _, err := unmarshalAnnotatedStream(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := unmarshalAnnotatedStream(append(bytes.Clone(payload), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A lying miss count must be caught by the popcount cross-check.
	mut := bytes.Clone(payload)
	mut[8]++
	if _, err := unmarshalAnnotatedStream(mut); err == nil {
		t.Fatal("inflated miss count accepted")
	}
	// Flipping a mispredict bit changes the popcount and must be caught too.
	mut = bytes.Clone(payload)
	mut[17+8] ^= 1 // first word of the mispredict lane
	if _, err := unmarshalAnnotatedStream(mut); err == nil {
		t.Fatal("flipped mispredict bit accepted")
	}
}

// TestBucketStreamCodecRoundTrip builds a real geometry-keyed bucket
// stream through the stage-3 kernel, round-trips it, and checks the
// histogram and the counts it ties out against all survive.
func TestBucketStreamCodecRoundTrip(t *testing.T) {
	flat := annotateBuffer(t, 20000).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	bs := tallyWalk(flat, ann, core.PaperOneLevel(core.IndexPCxorBHR), nil)

	payload := marshalBucketStream(bs)
	got, err := unmarshalBucketStream(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != bs.n || got.misses != bs.misses {
		t.Fatalf("decoded shape (n=%d misses=%d), want (%d, %d)", got.n, got.misses, bs.n, bs.misses)
	}
	if !reflect.DeepEqual(got.Stats(), bs.Stats()) {
		t.Fatal("decoded histogram differs")
	}
	if !bytes.Equal(marshalBucketStream(got), payload) {
		t.Fatal("re-marshalled payload differs")
	}
}

// TestBucketPayloadIsHistogramOnly pins what a bucket record holds: a
// 24-byte header (branches, misses, entry count) and 24 bytes per
// histogram entry — no per-branch lane, for any geometry a suite pass
// tallies.
func TestBucketPayloadIsHistogramOnly(t *testing.T) {
	spec, err := workload.ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	cfg := SuiteConfig{Branches: n, Specs: []workload.Spec{spec}}
	newMechs := []func() core.Mechanism{
		func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) },
		func() core.Mechanism { return core.PaperTwoLevels()[0] },
		func() core.Mechanism { return core.PaperResetting() },
	}
	if _, err := RunSuiteAnnotated(cfg, "gshare-64K", predictor.Gshare64K, newMechs); err != nil {
		t.Fatal(err)
	}
	for _, nm := range newMechs {
		fm := nm().(core.Factorable)
		key := bucketKey{spec: spec, n: n, predKey: "gshare-64K", geom: fm.GeometryKey()}
		bs, err := BucketTier.Get(key, nil, func() (*BucketStream, error) {
			return nil, errors.New("the suite pass left no resident stream")
		})
		if err != nil {
			t.Fatalf("%s: %v", fm.Name(), err)
		}
		if got, want := len(BucketTier.Encode(bs)), 24+24*len(bs.Stats()); got != want {
			t.Errorf("%s: bucket payload is %d bytes, want %d (24 + 24 per histogram entry)", fm.Name(), got, want)
		}
	}
}

func TestBucketStreamCodecRejectsDamage(t *testing.T) {
	// Tiny fixture: 4 branches in buckets 0,1,1,3 with misses on the two
	// bucket-1 branches.
	bs := &BucketStream{n: 4, misses: 2, stats: analysis.BucketStats{
		0: {Events: 1},
		1: {Events: 2, Misses: 2},
		3: {Events: 1},
	}}
	payload := marshalBucketStream(bs)
	if _, err := unmarshalBucketStream(payload); err != nil {
		t.Fatalf("fixture does not round-trip: %v", err)
	}
	for n := 0; n < len(payload); n++ {
		if _, err := unmarshalBucketStream(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := unmarshalBucketStream(append(bytes.Clone(payload), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Histogram totals must tie out against the stream header.
	mut := bytes.Clone(payload)
	mut[0]++ // n = 5, but buckets still sum to 4 events
	if _, err := unmarshalBucketStream(mut); err == nil {
		t.Fatal("histogram/stream event disagreement accepted")
	}
	mut = bytes.Clone(payload)
	mut[8]++ // misses = 3, buckets still sum to 2
	if _, err := unmarshalBucketStream(mut); err == nil {
		t.Fatal("histogram/stream miss disagreement accepted")
	}
}
