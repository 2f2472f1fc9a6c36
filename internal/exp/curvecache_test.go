package exp

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/sim"
)

// TestCurveCodecRoundTrip: the curve codec must reproduce every field
// bit-exactly — the tier's byte-identical-report guarantee rests on floats
// surviving the trip through their IEEE 754 bit patterns.
func TestCurveCodecRoundTrip(t *testing.T) {
	cv := analysis.Curve{
		{Key: analysis.Key{Run: -1, Bucket: 0}, Rate: 0.1, EventsPct: 1.0 / 3.0, MissesPct: 0, CumEventsPct: 33.333333333333336, CumMissesPct: 100},
		{Key: analysis.Key{Run: 7, Bucket: math.MaxUint64}, Rate: math.Nextafter(0.5, 1), EventsPct: 5e-324, MissesPct: math.MaxFloat64, CumEventsPct: 99.9, CumMissesPct: 0.0625},
	}
	dec, err := unmarshalCurve(marshalCurve(cv))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(cv) {
		t.Fatalf("round-trip length %d, want %d", len(dec), len(cv))
	}
	for i := range cv {
		if dec[i] != cv[i] {
			t.Errorf("point %d: %+v != %+v", i, dec[i], cv[i])
		}
	}
	// Empty curves marshal and decode as nil, matching what BuildCurve
	// returns for an empty composite.
	if dec, err := unmarshalCurve(marshalCurve(nil)); err != nil || dec != nil {
		t.Fatalf("empty curve round-trip: %v, %v", dec, err)
	}
}

// TestCurveCodecFailsClosed: any structural damage to a curve payload is an
// error, never a partial or padded curve.
func TestCurveCodecFailsClosed(t *testing.T) {
	payload := marshalCurve(analysis.Curve{
		{Key: analysis.Key{Run: 0, Bucket: 3}, Rate: 0.25},
		{Key: analysis.Key{Run: 1, Bucket: 9}, Rate: 0.75},
	})
	cases := map[string][]byte{
		"empty":           {},
		"short header":    payload[:5],
		"truncated point": payload[:len(payload)-8],
		"trailing bytes":  append(append([]byte{}, payload...), 0),
		"count mismatch": func() []byte {
			p := append([]byte{}, payload...)
			p[0]++ // claims one more point than the bytes hold
			return p
		}(),
	}
	for name, data := range cases {
		if cv, err := unmarshalCurve(data); err == nil {
			t.Errorf("%s: decoded to %d points, want error", name, len(cv))
		}
	}
}

// TestMergedRequiresDescriptor: an anonymous reduction cannot be cached —
// the descriptor is the function's cache identity — so Merged("") panics
// rather than risking cross-reduction aliasing.
func TestMergedRequiresDescriptor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merged(\"\") did not panic")
		}
	}()
	s := NewSession(Config{})
	s.Pooled(nil).Merged("", func(b uint64) uint64 { return b })
}

// TestHashRunsKeysContent: the content hash must be invariant to bucket-map
// iteration order and sensitive to every statistic and to run boundaries.
func TestHashRunsKeysContent(t *testing.T) {
	a := analysis.BucketStats{1: {Events: 10, Misses: 2}, 2: {Events: 5, Misses: 1}}
	b := analysis.BucketStats{2: {Events: 5, Misses: 1}, 1: {Events: 10, Misses: 2}}
	if analysis.HashRuns([]analysis.BucketStats{a}) != analysis.HashRuns([]analysis.BucketStats{b}) {
		t.Error("hash depends on bucket insertion order")
	}
	base := analysis.HashRuns([]analysis.BucketStats{a})
	mut := analysis.BucketStats{1: {Events: 10, Misses: 3}, 2: {Events: 5, Misses: 1}}
	if analysis.HashRuns([]analysis.BucketStats{mut}) == base {
		t.Error("hash missed a changed miss count")
	}
	// The same triples split differently across runs must hash differently.
	one := []analysis.BucketStats{{1: {Events: 10, Misses: 2}, 2: {Events: 5, Misses: 1}}}
	two := []analysis.BucketStats{{1: {Events: 10, Misses: 2}}, {2: {Events: 5, Misses: 1}}}
	if analysis.HashRuns(one) == analysis.HashRuns(two) {
		t.Error("hash missed a run boundary")
	}
}

// TestCurveKeyFromMemoizedDigests: a session-published pass keys its
// curves by the combination of its runs' memoized digests, which equals
// HashRuns over the pass's tallies — and equals the key of the same
// tallies carried by unmemoized runs, so both share one curve build.
func TestCurveKeyFromMemoizedDigests(t *testing.T) {
	s := NewSession(Config{Branches: 15000})
	sr, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.HashRuns(sr.Stats())
	memoized := s.Pooled(sr.Runs)
	if got := memoized.contentHash(); got != want {
		t.Fatalf("memoized key %x, want HashRuns %x", got, want)
	}
	// The pass's digests are now memoized: keying it again hashes nothing.
	before := sim.DigestsComputed()
	if got := s.Pooled(sr.Runs).contentHash(); got != want {
		t.Fatalf("second memoized key %x, want %x", got, want)
	}
	if n := sim.DigestsComputed() - before; n != 0 {
		t.Fatalf("re-keying a memoized pass hashed %d runs, want 0", n)
	}

	plain := make([]sim.Result, len(sr.Runs))
	for i, r := range sr.Runs {
		plain[i] = sim.Result{Benchmark: r.Benchmark, Branches: r.Branches, Misses: r.Misses, Buckets: r.Buckets}
	}
	adHoc := s.Pooled(plain)
	if got := adHoc.contentHash(); got != memoized.contentHash() {
		t.Fatalf("unmemoized key %x differs from memoized key %x", got, memoized.contentHash())
	}

	cv := memoized.Curve()
	tier := CurveTier.Stats()
	if got := adHoc.Curve(); !reflect.DeepEqual(got, cv) {
		t.Fatal("ad-hoc run list served a different curve")
	}
	if r := CurveTier.Stats(); r.Hits != tier.Hits+1 || r.Misses != tier.Misses {
		t.Fatalf("ad-hoc curve: hits %d→%d, misses %d→%d; want one hit, no build", tier.Hits, r.Hits, tier.Misses, r.Misses)
	}
}

// TestWarmSessionHashesNothing: re-running figures on a warm session
// computes no run digest and serves every curve from the tier.
func TestWarmSessionHashesNothing(t *testing.T) {
	s := NewSession(Config{Branches: 15000})
	run := func() (texts []string, curves int) {
		for _, id := range []string{"fig5", "fig11"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			o, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, o.Text)
			curves += len(o.Series)
		}
		return texts, curves
	}
	cold, _ := run()

	digests, tier := sim.DigestsComputed(), CurveTier.Stats()
	warm, curves := run()
	if n := sim.DigestsComputed() - digests; n != 0 {
		t.Errorf("warm figures hashed %d run digests, want 0", n)
	}
	r := CurveTier.Stats()
	if r.Misses != tier.Misses {
		t.Errorf("warm figures built %d curves, want 0", r.Misses-tier.Misses)
	}
	if r.Hits-tier.Hits != uint64(curves) {
		t.Errorf("warm figures hit the curve tier %d times, want one per curve (%d)", r.Hits-tier.Hits, curves)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("warm figures render differently from cold")
	}
}

// TestWarmFig8BuildsNoMechanism: re-running fig8 on a warm session only
// looks up its passes and curves. Each run allocates less than one
// 2^16-entry counter table, which is what building the figure's counter
// mechanisms to learn their keys cost per run.
func TestWarmFig8BuildsNoMechanism(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Config{Branches: 15000})
	if _, err := e.Run(s); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := e.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a warm fig8 run allocates %d bytes, want under 64 KiB", per)
	}
}

// TestWarmCurveHitRendersNoKey: a curve served from memory renders no
// store key. The store key spells out the reduction descriptor, so the
// bytes a warm hit allocates must not grow with the descriptor's length.
func TestWarmCurveHitRendersNoKey(t *testing.T) {
	s := NewSession(Config{Branches: 15000})
	sr, err := s.SuiteOne(predGshare64K, mechOneLevel(core.IndexPCxorBHR))
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Pooled(sr.Runs)
	ident := func(b uint64) uint64 { return b }
	const hits = 200
	perHit := func(desc string) float64 {
		cs.Merged(desc, ident) // the cold build
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			cs.Merged(desc, ident)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / hits
	}
	short := perHit("key-probe")
	long := perHit("key-probe-" + strings.Repeat("x", 4096))
	if long-short > 1024 {
		t.Errorf("a warm hit allocates %.0f bytes under a 4 KiB descriptor and %.0f under a short one: the hit renders its store key", long, short)
	}
}
