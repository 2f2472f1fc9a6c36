package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/faultnet"
	"branchconf/internal/serve"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// newRemoteStoreServer boots an in-process artifactd equivalent: the remote
// object protocol over a fresh backing directory.
func newRemoteStoreServer(t *testing.T) (string, *artifact.RemoteServer) {
	t.Helper()
	backing, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := artifact.NewRemoteServer(backing)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, srv
}

// remoteTier extracts the remote-artifact row from -cache-stats output.
func remoteTier(t *testing.T, errOut string) (hits uint64, degraded bool) {
	t.Helper()
	re := regexp.MustCompile(`cache-stats remote-artifact\s+hits=(\d+) misses=\d+ evictions=\d+ resident_bytes=\d+ verify_fails=\d+ op_errors=\d+ degraded=(true|false)`)
	m := re.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("no remote-artifact cache-stats line in:\n%s", errOut)
	}
	h, _, _ := cacheTier(t, errOut, "remote-artifact")
	return h, m[2] == "true"
}

// TestShardAndRemoteFlagValidation: every contradictory flag combination
// around sharding and the remote tier fails up front, naming both sides.
func TestShardAndRemoteFlagValidation(t *testing.T) {
	appCases := []struct {
		name string
		args []string
		want []string
	}{
		{"remote-without-dir", []string{"-artifact-remote", "http://x"},
			[]string{"-artifact-remote requires", "-artifact-dir"}},
		{"shard-out-of-range", []string{"-shard", "2/2"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-not-numbers", []string{"-shard", "a/b"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-no-slash", []string{"-shard", "2"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-starved", []string{"-shard", "2/3", "-only", "fig2,fig5", "-branches", "15000"},
			[]string{"selects no experiments"}},
		{"shard-zero-count", []string{"-shard", "0/0"},
			[]string{"-shard:", `shard must have the form "i/n"`}},
		{"shard-remote-without-dir", []string{"-shard", "0/2", "-artifact-remote", "http://x"},
			[]string{"-artifact-remote requires", "-artifact-dir"}},
	}
	for _, tc := range appCases {
		t.Run("app/"+tc.name, func(t *testing.T) {
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
				t.Error("output produced despite invalid flags")
			}
		})
	}

	mergeCases := []struct {
		name string
		args []string
		want []string
	}{
		{"no-partials", nil, []string{"needs partial report files"}},
		{"from-store-without-shards", []string{"-from-store", "-artifact-dir", "d"},
			[]string{"-from-store requires -shards"}},
		{"from-store-without-dir", []string{"-from-store", "-shards", "2"},
			[]string{"-from-store requires -artifact-dir"}},
		{"request-flags-in-file-mode", []string{"-branches", "100", "p.json"},
			[]string{"-branches applies only with -from-store"}},
		{"store-flags-in-file-mode", []string{"-artifact-strict", "p.json"},
			[]string{"-artifact-strict applies only with -from-store"}},
	}
	for _, tc := range mergeCases {
		t.Run("merge/"+tc.name, func(t *testing.T) {
			var out, errW strings.Builder
			err := mergeMain(tc.args, &out, &errW)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestShardMergeByteIdentity is the fan-out acceptance gate, end to end
// through the CLI paths: two -shard workers plus a merge reproduce the
// single-process report byte for byte.
func TestShardMergeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	base := reportConfig{
		req:    serve.ReportRequest{Branches: 20000, Only: []string{"fig2", "fig5", "table1"}, NoTimings: true},
		engine: engineConfig{parallel: 2},
	}
	run := func(cfg reportConfig) string {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := run(base)

	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.shard = serve.Shard{Index: i, Count: 2}
		partial := run(cfg)
		if !strings.Contains(partial, `"shard": "`+cfg.shard.String()+`"`) {
			t.Fatalf("shard %s emitted no partial JSON:\n%.200s", cfg.shard, partial)
		}
		p := filepath.Join(dir, fmt.Sprintf("partial%d.json", i))
		if err := os.WriteFile(p, []byte(partial), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	for name, order := range map[string][]string{
		"in-order": {paths[0], paths[1]},
		"reversed": {paths[1], paths[0]},
	} {
		var out, errW strings.Builder
		if err := mergeMain(order, &out, &errW); err != nil {
			t.Fatalf("merge %s: %v", name, err)
		}
		if out.String() != want {
			t.Errorf("merged report (%s) differs from single-process report", name)
		}
	}

	// And through -o, as the CI smoke job drives it.
	merged := filepath.Join(dir, "merged.md")
	var out, errW strings.Builder
	if err := mergeMain([]string{"-o", merged, paths[0], paths[1]}, &out, &errW); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Error("merged -o report differs from single-process report")
	}
}

// TestFanoutCoordinatorByteIdentity: two -shard workers publishing into
// one store, then a store-mode merge that needs nothing but the store,
// reproduce the single-process bytes; a merge for a shard count nobody ran
// fails loudly.
func TestFanoutCoordinatorByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	req := []string{"-branches", "20000", "-only", "fig2,fig5,table1", "-no-timings"}
	resetEngineCaches()
	var ref, errW strings.Builder
	if err := appMain(append([]string{"-parallel", "2"}, req...), &ref, &errW); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		resetEngineCaches()
		var partial, workerErr strings.Builder
		args := append([]string{"-shard", fmt.Sprintf("%d/2", i), "-parallel", "2", "-artifact-dir", dir}, req...)
		if err := appMain(args, &partial, &workerErr); err != nil {
			t.Fatalf("worker %d/2: %v", i, err)
		}
	}

	var merged, mergeErr strings.Builder
	margs := append([]string{"-from-store", "-shards", "2", "-artifact-dir", dir}, req...)
	if err := mergeMain(margs, &merged, &mergeErr); err != nil {
		t.Fatal(err)
	}
	if merged.String() != ref.String() {
		t.Error("store-mode merge differs from single-process report")
	}

	var out2, err2 strings.Builder
	margs[2] = "3"
	if err := mergeMain(margs, &out2, &err2); err == nil || !strings.Contains(err.Error(), "no partial for shard") {
		t.Fatalf("merge with missing partials = %v", err)
	}
}

// TestMergeFromStoreAutoSegment: above the materialization ceiling a
// worker's request carries the auto-resolved segment size, and a
// store-mode merge given the same flags must build that request too. The
// partial is published by hand as such a worker would, so no
// 9,000,000-branch run is needed.
func TestMergeFromStoreAutoSegment(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	artifact.SetDefault(store)
	p := &serve.PartialReport{
		Format: serve.PartialFormatVersion,
		Request: serve.ReportRequest{
			Branches:        9000000,
			Only:            []string{"fig2"},
			SegmentBranches: serve.AutoSegmentBranches,
		},
		Shard:       "0/1",
		Experiments: 1,
		Sections:    []serve.PartialSection{{Index: 0, ID: "fig2", Text: "hand-made fig2 section\n", Elapsed: 1.5}},
	}
	published := serve.PublishPartial(p)
	store.Close()
	artifact.SetDefault(nil)
	if !published {
		t.Fatal("partial not published")
	}

	var out, errW strings.Builder
	args := []string{"-from-store", "-shards", "1", "-branches", "9000000", "-only", "fig2", "-artifact-dir", dir}
	if err := mergeMain(args, &out, &errW); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hand-made fig2 section") || !strings.Contains(out.String(), "_(ran in 1.5s)_") {
		t.Fatalf("merged report does not carry the published partial:\n%s", out.String())
	}
}

// TestMergeFromStoreRealTrace: a realtrace fan-out over a recorded trace
// merges from the store to the one-shot bytes; the merge resolves -trace
// to the same content identity the worker keyed its partial with.
func TestMergeFromStoreRealTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "rt.champsim")
	writeChampSimTrace(t, tracePath, 20000)
	req := []string{"-only", "realtrace", "-trace", tracePath, "-no-timings", "-parallel", "2"}

	resetEngineCaches()
	var ref, errW strings.Builder
	if err := appMain(req, &ref, &errW); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	resetEngineCaches()
	var partial strings.Builder
	if err := appMain(append([]string{"-shard", "0/1", "-artifact-dir", dir}, req...), &partial, &errW); err != nil {
		t.Fatal(err)
	}
	var merged strings.Builder
	margs := []string{"-from-store", "-shards", "1", "-only", "realtrace", "-trace", tracePath, "-no-timings", "-artifact-dir", dir}
	if err := mergeMain(margs, &merged, &errW); err != nil {
		t.Fatal(err)
	}
	if merged.String() != ref.String() {
		t.Error("store-mode realtrace merge differs from the one-shot report")
	}
}

// writeChampSimTrace records n branches of a suite benchmark as a ChampSim
// trace at path, as tracegen -format champsim does.
func writeChampSimTrace(t *testing.T, path string, n uint64) {
	t.Helper()
	src, err := workload.Suite()[0].FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewChampSimWriter(f).WriteAll(src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWarmShareByteIdentity: worker A runs cold against an empty
// remote store; worker B, with an empty local tier, warm-starts purely from
// A's published artifacts — byte-identical report, remote hits visible in
// the ninth cache-stats row.
func TestRemoteWarmShareByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset twice")
	}
	base, srv := newRemoteStoreServer(t)
	cfg := reportConfig{
		req:        serve.ReportRequest{Branches: 20000, Only: []string{"fig2", "fig5", "gating"}, NoTimings: true},
		engine:     engineConfig{parallel: 2},
		store:      storeConfig{remote: base},
		cacheStats: true,
	}
	run := func(cfg reportConfig) (string, string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	cold := cfg
	cold.store.dir = t.TempDir()
	coldReport, coldErr := run(cold)
	if hits, degraded := remoteTier(t, coldErr); hits != 0 || degraded {
		t.Fatalf("cold run remote tier: hits=%d degraded=%t, want 0/false", hits, degraded)
	}
	if st := srv.Stats(); st.Puts == 0 {
		t.Fatal("cold run published nothing to the remote store")
	}

	warm := cfg
	warm.store.dir = t.TempDir() // empty local tier: only the remote is warm
	warmReport, warmErr := run(warm)
	if warmReport != coldReport {
		t.Error("remote-warmed report differs from cold report")
	}
	hits, degraded := remoteTier(t, warmErr)
	if hits == 0 || degraded {
		t.Fatalf("warm run remote tier: hits=%d degraded=%t, want hits>0", hits, degraded)
	}
	if h, _, vf := diskTier(t, warmErr); h != 0 || vf != 0 {
		t.Errorf("warm run local disk: hits=%d verify_fails=%d, want 0 (fresh dir, remote-fed)", h, vf)
	}
}

// TestRemoteOutageDegradesToBaseline: the remote store going dark — from
// the first byte or mid-run — costs warm starts, never bytes: the breaker
// trips the tier into local-only mode and the report equals the no-remote
// baseline.
func TestRemoteOutageDegradesToBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset three times")
	}
	cfg := reportConfig{
		req:        serve.ReportRequest{Branches: 20000, Only: []string{"fig2", "fig5"}, NoTimings: true},
		engine:     engineConfig{parallel: 2},
		cacheStats: true,
	}
	run := func(cfg reportConfig) (string, string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	baselineCfg := cfg
	baselineCfg.store.dir = t.TempDir()
	baseline, _ := run(baselineCfg)

	for name, from := range map[string]uint64{"from-first-byte": 1, "mid-run": 4} {
		t.Run(name, func(t *testing.T) {
			tr := faultnet.New(&http.Client{})
			base, _ := newRemoteStoreServer(t)
			tr.Inject(faultnet.Fault{Op: faultnet.OpAny, From: from, Mode: faultnet.FailConn})
			outage := cfg
			outage.store.dir = t.TempDir()
			outage.store.remote = base
			outage.store.doer = tr
			report, errOut := run(outage)
			if report != baseline {
				t.Error("report under remote outage differs from no-remote baseline")
			}
			if _, degraded := remoteTier(t, errOut); !degraded {
				t.Error("remote tier not degraded after the outage")
			}
			if _, _, vf := diskTier(t, errOut); vf != 0 {
				t.Errorf("local disk verify_fails=%d during remote outage, want 0", vf)
			}
		})
	}
}
