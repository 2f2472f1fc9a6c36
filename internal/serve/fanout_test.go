package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/2": {0, 2},
		"1/2": {1, 2},
		"7/8": {7, 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("Shard%v.String() = %q, want %q", got, got.String(), in)
		}
	}
	for _, in := range []string{"", "1", "1/", "/2", "2/2", "3/2", "-1/2", "0/0", "0/-1", "a/b", "1/2/3", "1 /2"} {
		if sh, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %v, want error", in, sh)
		} else if !strings.Contains(err.Error(), `shard must have the form "i/n"`) {
			t.Errorf("ParseShard(%q) error style: %v", in, err)
		}
	}
}

// TestParseShardCanonicalOnly is the regression test for the
// non-canonical-spelling bug: strconv.Atoi tolerates signs and leading
// zeros, so "+0/2" and "00/2" used to parse to the same Shard as "0/2"
// while keying partial-report artifacts differently at publish time
// (the raw string travels in PartialReport.Shard). Every accepted
// spelling must round-trip through Shard.String() unchanged.
func TestParseShardCanonicalOnly(t *testing.T) {
	for _, in := range []string{
		"+0/2", "00/2", "0/02", "0/+2", "01/2", " 0/2", "0/2 ", "0x0/2",
	} {
		if sh, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %v, want error (non-canonical spelling)", in, sh)
		}
	}
	// The canonical spellings still parse, and parse to themselves.
	for _, in := range []string{"0/2", "1/2", "12/34"} {
		sh, err := ParseShard(in)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", in, err)
		}
		if sh.String() != in {
			t.Errorf("ParseShard(%q).String() = %q, want input back", in, sh.String())
		}
	}
}

// TestFanoutMergeByteIdentity pins the tentpole contract: for every shard
// count, building each shard's partial and merging them reproduces
// BuildReport's bytes exactly — sharding changes where a section is
// computed, never what the report contains.
func TestFanoutMergeByteIdentity(t *testing.T) {
	req := ReportRequest{Branches: 20000, Only: []string{"fig2", "fig5", "table1"}, NoTimings: true}
	session := exp.NewSession(exp.Config{Branches: req.Branches})
	opts := BuildOptions{Parallel: 2}
	want, err := BuildReport(session, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		partials := make([]*PartialReport, n)
		for i := 0; i < n; i++ {
			p, err := BuildPartial(session, req, opts, Shard{Index: i, Count: n})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			// Round-trip the wire codec, as a real worker-to-coordinator
			// hop would.
			p, err = DecodePartial(p.Encode())
			if err != nil {
				t.Fatalf("shard %d/%d codec: %v", i, n, err)
			}
			partials[i] = p
		}
		// Merge order must not matter: partials own disjoint index sets and
		// the renderer walks registry order.
		for rot := 0; rot < n; rot++ {
			rotated := append(append([]*PartialReport{}, partials[rot:]...), partials[:rot]...)
			got, err := MergeReport(req, rotated)
			if err != nil {
				t.Fatalf("merge %d shards (rot %d): %v", n, rot, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged report (%d shards, rot %d) differs from BuildReport", n, rot)
			}
		}
	}
}

// TestPartialTimingsZeroedUnderNoTimings: a timing-free request's partial
// is a pure function of the request — elapsed never leaks into the bytes,
// so the KindPartial artifact is content-addressable.
func TestPartialTimingsZeroedUnderNoTimings(t *testing.T) {
	req := ReportRequest{Branches: 15000, Only: []string{"fig2"}, NoTimings: true}
	session := exp.NewSession(exp.Config{Branches: req.Branches})
	p1, err := BuildPartial(session, req, BuildOptions{}, Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPartial(session, req, BuildOptions{}, Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range p1.Sections {
		if sec.Elapsed != 0 {
			t.Fatalf("section %s carries elapsed %v under NoTimings", sec.ID, sec.Elapsed)
		}
	}
	if !bytes.Equal(p1.Encode(), p2.Encode()) {
		t.Fatal("timing-free partial bytes not reproducible")
	}
}

// TestShardValidation: a worker whose filter starves its slice, or whose
// shard is out of range, is rejected before any simulation runs.
func TestShardValidation(t *testing.T) {
	req := ReportRequest{Branches: 15000, Only: []string{"fig2", "fig5"}, NoTimings: true}
	session := exp.NewSession(exp.Config{Branches: req.Branches})
	if _, err := BuildPartial(session, req, BuildOptions{}, Shard{Index: 2, Count: 3}); err == nil || !strings.Contains(err.Error(), "selects no experiments") {
		t.Fatalf("BuildPartial on a starved shard = %v, want error", err)
	}
	if _, err := BuildPartial(session, req, BuildOptions{}, Shard{Index: 3, Count: 2}); err == nil {
		t.Fatal("BuildPartial accepted an out-of-range shard")
	}
}

// TestMergeRejectsSkew: merges fail loudly on anything that could produce
// a silently wrong report — missing shards, overlap, a partial built for a
// different request, or a format-version mismatch.
func TestMergeRejectsSkew(t *testing.T) {
	req := ReportRequest{Branches: 15000, Only: []string{"fig2", "fig5"}, NoTimings: true}
	session := exp.NewSession(exp.Config{Branches: req.Branches})
	build := func(i, n int) *PartialReport {
		t.Helper()
		p, err := BuildPartial(session, req, BuildOptions{}, Shard{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0, p1 := build(0, 2), build(1, 2)

	if _, err := MergeReport(req, nil); err == nil {
		t.Fatal("merge of zero partials")
	}
	if _, err := MergeReport(req, []*PartialReport{p0}); err == nil || !strings.Contains(err.Error(), "missing from the merged partials") {
		t.Fatalf("merge with a missing shard = %v", err)
	}
	if _, err := MergeReport(req, []*PartialReport{p0, p0}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("merge with overlapping shards = %v", err)
	}
	other := ReportRequest{Branches: 17000, Only: []string{"fig2", "fig5"}, NoTimings: true}
	if _, err := MergeReport(other, []*PartialReport{p0, p1}); err == nil || !strings.Contains(err.Error(), "different request") {
		t.Fatalf("merge across requests = %v", err)
	}
	stale := *p0
	stale.Format = PartialFormatVersion + 1
	if _, err := MergeReport(req, []*PartialReport{&stale, p1}); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("merge with a stale codec = %v", err)
	}
	skew := *p0
	skew.Experiments = 99
	if _, err := MergeReport(req, []*PartialReport{&skew, p1}); err == nil || !strings.Contains(err.Error(), "registry skew") {
		t.Fatalf("merge with selection-size skew = %v", err)
	}
}

// TestPartialStoreRoundTrip: partials travel the artifact store under
// KindPartial and come back intact; a corrupted stored partial is dropped
// fail-closed as a miss.
func TestPartialStoreRoundTrip(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	artifact.SetDefault(store)
	defer artifact.SetDefault(nil)

	req := ReportRequest{Branches: 15000, Only: []string{"fig2", "fig5"}, NoTimings: true}
	session := exp.NewSession(exp.Config{Branches: req.Branches})
	sh := Shard{Index: 0, Count: 2}
	p, err := BuildPartial(session, req, BuildOptions{}, sh)
	if err != nil {
		t.Fatal(err)
	}
	if !PublishPartial(p) {
		t.Fatal("publish with a configured store reported no store")
	}
	got, ok := FetchPartial(req, sh)
	if !ok {
		t.Fatal("published partial not fetchable")
	}
	if !bytes.Equal(got.Encode(), p.Encode()) {
		t.Fatal("partial bytes changed across the store round trip")
	}
	if _, ok := FetchPartial(req, Shard{Index: 1, Count: 2}); ok {
		t.Fatal("phantom partial for an unpublished shard")
	}
	other := ReportRequest{Branches: 17000, Only: []string{"fig2", "fig5"}, NoTimings: true}
	if _, ok := FetchPartial(other, sh); ok {
		t.Fatal("phantom partial for a different request")
	}

	// A decodable-but-wrong payload under the right key is dropped, not
	// served: store a valid partial under the wrong shard's key.
	wrongKey := fmt.Sprintf("partial|fmt=%d|req{%s}|shard=1/2", PartialFormatVersion, req.Key())
	if err := store.Put(artifact.KindPartial, wrongKey, p.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, ok := FetchPartial(req, Shard{Index: 1, Count: 2}); ok {
		t.Fatal("a mislabeled partial was served")
	}
}
