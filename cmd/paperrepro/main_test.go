package main

import (
	"strings"
	"testing"
)

func TestReportSubset(t *testing.T) {
	var out, errW strings.Builder
	err := appMain([]string{"-branches", "30000", "-only", "fig2,table1"}, &out, &errW)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "## fig2") || !strings.Contains(report, "## table1") {
		t.Fatalf("report missing sections:\n%s", report[:200])
	}
	if strings.Contains(report, "## fig5") {
		t.Fatal("filter leaked fig5")
	}
	if !strings.Contains(report, "| metric | value |") {
		t.Fatal("scalar tables missing")
	}
	if !strings.Contains(report, "Paper:") {
		t.Fatal("paper reference lines missing")
	}
}

func TestReportEmptyFilter(t *testing.T) {
	var out, errW strings.Builder
	if err := appMain([]string{"-only", "nonesuch"}, &out, &errW); err == nil {
		t.Fatal("empty filter accepted")
	}
}

// TestRejectUnknownOnly: an unknown -only id must fail fast — before any
// simulation — with an error naming the offender and listing the valid ids.
func TestRejectUnknownOnly(t *testing.T) {
	var out, errW strings.Builder
	err := appMain([]string{"-only", "fig5,figg6"}, &out, &errW)
	if err == nil {
		t.Fatal("unknown -only id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"figg6"`) {
		t.Errorf("error does not name the unknown id: %v", err)
	}
	if !strings.Contains(msg, "valid ids:") || !strings.Contains(msg, "fig5") || !strings.Contains(msg, "table1") {
		t.Errorf("error does not list the valid ids: %v", err)
	}
	if out.Len() != 0 {
		t.Error("report output produced despite invalid -only")
	}
}

// TestRejectBadParallel: -parallel below 1 is a configuration error, not a
// silent clamp.
func TestRejectBadParallel(t *testing.T) {
	for _, p := range []string{"0", "-3"} {
		var out, errW strings.Builder
		err := appMain([]string{"-parallel", p, "-only", "fig2"}, &out, &errW)
		if err == nil {
			t.Fatalf("-parallel %s accepted", p)
		}
		if !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("-parallel %s: error does not mention the flag: %v", p, err)
		}
	}
}

// TestCacheStatsFlag: -cache-stats must print one counter line per engine
// cache to stderr, and a run that simulates anything must show the
// counters moving (misses and resident bytes for both caches).
func TestCacheStatsFlag(t *testing.T) {
	var out, errW strings.Builder
	err := appMain([]string{"-branches", "20000", "-only", "fig5", "-cache-stats"}, &out, &errW)
	if err != nil {
		t.Fatal(err)
	}
	progress := errW.String()
	// The table is one row per tier, session pass cache down to disk store.
	lines := map[string]string{}
	for _, line := range strings.Split(progress, "\n") {
		if rest, ok := strings.CutPrefix(line, "cache-stats "); ok {
			lines[strings.Fields(rest)[0]] = line
		}
	}
	heapRows := 0
	for tier := range lines {
		if strings.HasPrefix(tier, "heap:") {
			heapRows++
		}
	}
	for _, tier := range []string{"session-pass", "trace-memo", "annotated-stream", "bucket-stream", "model-stats", "curve", "artifact-disk", "stream-segment", "remote-artifact"} {
		if lines[tier] == "" {
			t.Errorf("cache-stats row for %s missing from stderr:\n%s", tier, progress)
		}
	}
	if len(lines)-heapRows != 9 {
		t.Errorf("cache-stats printed %d tier rows, want 9:\n%s", len(lines)-heapRows, progress)
	}
	// The peak-memory column: per-stage HeapAlloc high-water rows, present
	// for every monolithic engine stage this run exercised.
	for _, stage := range []string{"heap:annotate", "heap:tally", "heap:replay"} {
		if !strings.Contains(lines[stage], "peak_heap_bytes=") || strings.Contains(lines[stage], "peak_heap_bytes=0") {
			t.Errorf("heap row for %s missing or zero:\n%s", stage, progress)
		}
	}
	annLine, bucketLine := lines["annotated-stream"], lines["bucket-stream"]
	for _, line := range []string{annLine, bucketLine} {
		if strings.Contains(line, "misses=0") || strings.Contains(line, "resident_bytes=0") {
			t.Errorf("counters did not move: %s", line)
		}
		for _, field := range []string{"hits=", "misses=", "evictions=", "resident_bytes="} {
			if !strings.Contains(line, field) {
				t.Errorf("line missing %s counter: %s", field, line)
			}
		}
	}
}

func TestReportToFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/r.md"
	var out, errW strings.Builder
	err := appMain([]string{"-branches", "30000", "-only", "fig2", "-o", path}, &out, &errW)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errW.String(), "fig2") {
		t.Fatal("no progress output with -o")
	}
}

func TestSkipAblations(t *testing.T) {
	var out, errW strings.Builder
	err := appMain([]string{"-branches", "30000", "-only", "ablation-index", "-skip-ablations"}, &out, &errW)
	if err == nil {
		t.Fatal("skip-ablations plus ablation-only filter should match nothing")
	}
}

// TestFlagConflictsRejected: a flag that needs another fails up front
// with an error naming both — silently ignoring it is a bug. Exercised for
// the one-shot CLI here and for the serve subcommand below.
func TestFlagConflictsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the error must contain
	}{
		{"artifact-strict-without-dir", []string{"-artifact-strict"},
			[]string{"-artifact-strict requires", "-artifact-dir"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := appMain(tc.args, &out, &errW)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if out.Len() != 0 {
				t.Error("report output produced despite conflicting flags")
			}
		})
	}
}

// TestServeFlagConflictsRejected: the serve subcommand validates the same
// store flag pairs before binding a listener.
func TestServeFlagConflictsRejected(t *testing.T) {
	cases := [][]string{
		{"-artifact-strict"},
		{"-artifact-remote", "http://x"},
	}
	for _, args := range cases {
		var out, errW strings.Builder
		if err := serveMain(args, &out, &errW); err == nil {
			t.Fatalf("serve %v accepted", args)
		}
	}
}
