package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitReportReassembles(t *testing.T) {
	header := "# Paper reproduction report\n\nPer-benchmark branch budget: 50000\n\n"
	secs := []string{
		"## fig2 — T\n\nPaper: p\n\n```\nx\n```\n\n",
		"## fig5 — U\n\nPaper: q\n\n```\ny\n```\n\n| metric | value |\n|---|---|\n| a | 1.000 |\n\n",
		"## table1 — V\n\nPaper: r\n\n```\nz\n```\n\n",
	}
	h, got := splitReport([]byte(header + strings.Join(secs, "")))
	if string(h) != header {
		t.Fatalf("header = %q", h)
	}
	for i, id := range []string{"fig2", "fig5", "table1"} {
		if string(got[id]) != secs[i] {
			t.Errorf("section %s = %q, want %q", id, got[id], secs[i])
		}
	}
}

func TestParseStatsAfterProgressLines(t *testing.T) {
	stderr := []byte("fig2 done in 0.1s\n{\n  \"session_pass\": {\"name\": \"session-pass\", \"misses\": 3},\n" +
		"  \"tiers\": [{\"name\": \"artifact-disk\", \"hits\": 5, \"verify_fails\": 1, \"extra\": true}]\n}\n")
	s, err := parseStats(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if s.builds()["session-pass"] != 3 || s.tier("artifact-disk").Hits != 5 || s.verifyFails() != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := parseStats([]byte("no stats here\n")); err == nil {
		t.Fatal("parseStats accepted stderr without a stats object")
	}
}

func newTestEnv() *env {
	return &env{values: map[string]float64{}, detail: map[string]any{}}
}

// Units come from BENCHMARK.json; a listed metric the run did not measure
// fails it, and an unlisted value moves to the detail record.
func TestCheckListed(t *testing.T) {
	root := t.TempDir()
	spec := `{"end_to_end": [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}],
		"per_layer": [{"name": "sim.annotate_s", "unit": "s"}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o666); err != nil {
		t.Fatal(err)
	}
	e := newTestEnv()
	e.metric("wall_s", 2.5)
	e.metric("extra", 1)
	got := checkListed(e, root, false)
	if len(got) != 1 || got["wall_s"].Value != 2.5 || got["wall_s"].Unit != "s" {
		t.Errorf("metrics = %v, want wall_s alone, in s", got)
	}
	if len(e.problems) != 1 || !strings.Contains(e.problems[0], "setup_s") {
		t.Errorf("problems = %v, want setup_s unmeasured", e.problems)
	}
	if u := e.detail["unlisted_values"].(map[string]float64); u["extra"] != 1 {
		t.Errorf("unlisted values = %v", u)
	}
	e = newTestEnv()
	checkListed(e, t.TempDir(), false)
	if len(e.problems) != 1 {
		t.Errorf("a checkout without BENCHMARK.json gave problems %v", e.problems)
	}
}

// A series in which no op succeeded has no median: the run fails instead
// of reporting zeros.
func TestEmptySeriesFailsTheRun(t *testing.T) {
	e := newTestEnv()
	e.attempted, e.failed = 5, 5
	(&opSeries{e: e}).report()
	if len(e.problems) != 1 {
		t.Fatalf("problems = %v, want one", e.problems)
	}
	if _, ok := e.values["wall_s"]; ok {
		t.Fatalf("an empty series reported wall_s = %v", e.values["wall_s"])
	}
}
