package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchconf/internal/exp"
	"branchconf/internal/sim"
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

// TestClientFlagConflictsRejected: -stats and -ready replace the report
// request, so a flag they would silently ignore fails up front with an
// error naming it and the mode, before any request is sent.
func TestClientFlagConflictsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the error must contain
	}{
		{"stats-with-request-flags", []string{"-stats", "-only", "fig2", "-branches", "5"},
			[]string{"-only", "-branches", "-stats"}},
		{"ready-with-request-flags", []string{"-ready", "-no-timings"},
			[]string{"-no-timings", "-ready"}},
		{"ready-with-o", []string{"-ready", "-o", "ready.txt"},
			[]string{"-o", "-ready"}},
		{"stats-with-ready", []string{"-stats", "-ready"},
			[]string{"-stats", "-ready"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := clientMain(append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...), &out, &errW)
			if err == nil {
				t.Fatalf("client %v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if out.Len() != 0 {
				t.Errorf("output %q produced despite conflicting flags", out.String())
			}
		})
	}
}

// TestListExperiments: -h lists every registry id with its title and is
// not an error, for the one-shot run and every subcommand alike.
func TestListExperiments(t *testing.T) {
	var out, errW strings.Builder
	if err := run([]string{"-h"}, &out, &errW); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, e := range exp.All() {
		if !strings.Contains(errW.String(), e.ID+" ") || !strings.Contains(errW.String(), e.Title) {
			t.Errorf("-h output lacks %s (%s):\n%s", e.ID, e.Title, errW.String())
		}
	}
	for _, sub := range []string{"serve", "client", "artifactd", "merge"} {
		if err := run([]string{sub, "-h"}, &out, &errW); err != nil {
			t.Errorf("%s -h: %v", sub, err)
		}
	}
}

// TestUnknownExperiment: an unknown experiment id fails before anything
// runs, so -data does not even create its directory.
func TestUnknownExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	var out, errW strings.Builder
	if err := appMain([]string{"-only", "fig99", "-data", dir}, &out, &errW); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected run created %s (stat: %v)", dir, err)
	}
}

// TestRunFig2WithOutputs: beside the report, -data writes fig2's artefact
// as fig2.json and each of its curves as a two-column fig2-<label>.dat.
func TestRunFig2WithOutputs(t *testing.T) {
	dir := t.TempDir()
	var out, errW strings.Builder
	if err := appMain([]string{"-only", "fig2", "-branches", "30000", "-no-timings", "-data", dir}, &out, &errW); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "## fig2") || !strings.Contains(out.String(), "| metric | value |") {
		t.Fatalf("report lacks fig2's section:\n%s", out.String())
	}
	fig2, err := os.ReadFile(filepath.Join(dir, "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if o, err := exp.DecodeJSON(bytes.NewReader(fig2)); err != nil || o.ID != "fig2" || len(o.Series) == 0 {
		t.Fatalf("fig2.json decodes to %+v, %v", o, err)
	}
	dat, err := os.ReadFile(filepath.Join(dir, "fig2-static.dat"))
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(dat), "\n", 2)[0]
	if len(strings.Fields(first)) != 2 {
		t.Fatalf("dat line %q not two columns", first)
	}
}

// TestTable1DataJSON: a table experiment's JSON artefact carries its rows.
func TestTable1DataJSON(t *testing.T) {
	dir := t.TempDir()
	var out, errW strings.Builder
	if err := appMain([]string{"-only", "table1", "-branches", "30000", "-no-timings", "-data", dir}, &out, &errW); err != nil {
		t.Fatal(err)
	}
	table1, err := os.ReadFile(filepath.Join(dir, "table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table1), `"rows"`) {
		t.Error("table1.json has no rows")
	}
}

// TestDataFilesFollowShard: under -shard, -data writes only the shard's
// experiments.
func TestDataFilesFollowShard(t *testing.T) {
	dir := t.TempDir()
	var out, errW strings.Builder
	args := []string{"-only", "fig2,table1", "-branches", "30000", "-no-timings", "-data", dir, "-shard", "1/2"}
	if err := appMain(args, &out, &errW); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 || filepath.Base(files[0]) != "table1.json" {
		t.Errorf("shard 1/2 of fig2,table1 wrote %v, want table1.json alone", files)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("BHRxorPC (ideal)"); got != "BHRxorPC__ideal_" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestParallelBoundsSimulationUnits: the one-shot -parallel bounds the
// process-wide simulation-unit pool, as its help says, not only the
// experiment workers.
func TestParallelBoundsSimulationUnits(t *testing.T) {
	sim.SetParallelism(4)
	t.Cleanup(func() { sim.SetParallelism(0) })
	var out, errW strings.Builder
	if err := appMain([]string{"-parallel", "1", "-only", "fig2", "-branches", "5000", "-no-timings"}, &out, &errW); err != nil {
		t.Fatal(err)
	}
	if got := sim.Parallelism(); got != 1 {
		t.Fatalf("simulation-unit bound after -parallel 1 = %d, want 1", got)
	}
}
