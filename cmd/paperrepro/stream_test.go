package main

import (
	"strings"
	"syscall"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/faultfs"
	"branchconf/internal/serve"
)

// TestSegmentBranchesFlagValidation: -segment-branches must be >= 1 (or -1
// for auto).
func TestSegmentBranchesFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"zero", []string{"-segment-branches", "0"}, "-segment-branches"},
		{"negative", []string{"-segment-branches", "-2"}, "-segment-branches"},
	} {
		var out, errW strings.Builder
		err := appMain(tc.args, &out, &errW)
		if err == nil {
			t.Fatalf("%s: args %v accepted", tc.name, tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestStreamingReportMatchesMonolithic is the report-level A/B identity:
// the full figure-mix report must be byte-identical between the segmented
// streaming engine and the monolithic engine, cold and warm.
func TestStreamingReportMatchesMonolithic(t *testing.T) {
	stubClock(t)
	base := reportConfig{
		req:        serve.ReportRequest{Branches: 10000, Only: []string{"fig2", "fig5", "table1"}},
		engine:     engineConfig{parallel: 2},
		cacheStats: true,
	}
	run := func(t *testing.T, cfg reportConfig) (report, errOut string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	baseline, _ := run(t, base)

	seg := base
	seg.req.SegmentBranches = 2048
	cold, coldErr := run(t, seg)
	if cold != baseline {
		t.Fatal("cold segmented report diverges from monolithic")
	}
	if _, misses, _ := cacheTier(t, coldErr, "stream-segment"); misses == 0 {
		t.Fatalf("cold segmented run built no live segments:\n%s", coldErr)
	}

	// Warm: same store, second segmented run serves segments from disk.
	dir := t.TempDir()
	seg.store.dir = dir
	if rep, _ := run(t, seg); rep != baseline {
		t.Fatal("cold segmented report with a store diverges")
	}
	warm, warmErr := run(t, seg)
	if warm != baseline {
		t.Fatal("warm segmented report diverges from monolithic")
	}
	if hits, _, _ := cacheTier(t, warmErr, "stream-segment"); hits == 0 {
		t.Fatalf("warm segmented run served no segments from disk:\n%s", warmErr)
	}
}

// TestStreamSegmentCorruptionHeals: flipping bytes in a third of the
// store's records — segment payloads and boundary checkpoints among them —
// must never change report bytes. Checksums reject the damage, the
// streaming walk rebuilds from the surviving checkpoints (or retries the
// unit live when a boundary checkpoint itself is gone), republishes, and
// leaves nothing but packs behind.
func TestStreamSegmentCorruptionHeals(t *testing.T) {
	stubClock(t)
	dir := t.TempDir()
	cfg := reportConfig{
		req:        serve.ReportRequest{Branches: 10000, Only: []string{"fig5"}, SegmentBranches: 1024},
		engine:     engineConfig{parallel: 2},
		store:      storeConfig{dir: dir},
		cacheStats: true,
	}
	run := func(t *testing.T) (report, errOut string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}
	baseline, _ := run(t)

	records, _ := storeRecords(t, dir)
	if len(records) == 0 {
		t.Fatal("store holds no artifacts")
	}
	corrupted := 0
	for i, r := range records {
		if i%3 != 0 {
			continue
		}
		r.flip(t, -1, 0xFF)
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("corrupted nothing")
	}

	healed, errOut := run(t)
	if healed != baseline {
		t.Fatal("report after segment-record corruption diverges")
	}
	if _, _, verifyFails := cacheTier(t, errOut, "artifact-disk"); verifyFails == 0 {
		t.Fatalf("corruption went undetected:\n%s", errOut)
	}
	storeRecords(t, dir) // nothing but packs

	// Fully healed: one more run is warm and identical.
	again, _ := run(t)
	if again != baseline {
		t.Fatal("post-heal segmented report diverges")
	}
}

// TestStreamingFaultStorm folds the segment artifacts into the fault
// matrix: a segmented report under a seeded random I/O fault storm — Puts
// of segment payloads and checkpoints failing nondeterministically, reads
// erroring mid-walk — still produces byte-identical output, and the store
// it leaves reopens cleanly.
func TestStreamingFaultStorm(t *testing.T) {
	stubClock(t)
	base := reportConfig{
		req:        serve.ReportRequest{Branches: 8000, Only: []string{"fig5"}, SegmentBranches: 1024},
		engine:     engineConfig{parallel: 2},
		cacheStats: true,
	}
	resetEngineCaches()
	var baseOut, baseErr strings.Builder
	if err := writeReport(&baseOut, &baseErr, base); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ffs := faultfs.New(artifact.OSFS())
	// Prewarm cleanly so the storm hits live read paths too.
	prewarm := base
	prewarm.store.dir = dir
	prewarm.store.fs = ffs
	resetEngineCaches()
	var out, errW strings.Builder
	if err := writeReport(&out, &errW, prewarm); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	if out.String() != baseOut.String() {
		t.Fatal("prewarm segmented report diverges")
	}

	ffs.SeedRandom(7, 0.3, syscall.EIO, syscall.ENOSPC, syscall.EACCES)
	resetEngineCaches()
	out.Reset()
	errW.Reset()
	if err := writeReport(&out, &errW, prewarm); err != nil {
		t.Fatalf("storm run failed hard: %v", err)
	}
	if out.String() != baseOut.String() {
		t.Error("segmented report under fault storm diverges")
	}
	if ffs.Injected() == 0 {
		t.Fatal("storm injected no faults")
	}

	// The storm can abandon packs with torn tails, and empty packs whose
	// cleanup Remove also faulted; the directory still holds nothing but
	// packs, and the next Open accounts for every byte of them.
	ffs.Clear()
	reopened, err := artifact.Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen after storm: %v", err)
	}
	if _, packBytes := storeRecords(t, dir); reopened.Stats().ResidentBytes != packBytes {
		t.Errorf("reopened store counts %d resident bytes, packs hold %d", reopened.Stats().ResidentBytes, packBytes)
	}
}
