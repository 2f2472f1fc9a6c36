package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"branchconf/internal/serve"
)

// stubClock freezes the report's timing lines so byte-comparison ignores
// wall-clock noise. now is a package variable read from worker goroutines,
// so the stub must be installed before writeReport starts and be
// race-free; a fixed instant is both.
func stubClock(t *testing.T) {
	t.Helper()
	saved := now
	epoch := time.Unix(1_000_000, 0)
	now = func() time.Time { return epoch }
	t.Cleanup(func() { now = saved })
}

// TestParallelReportMatchesSerial is the scheduler's determinism
// guarantee: the report produced by the bounded worker pool at any
// parallelism level is byte-identical to the serial run.
func TestParallelReportMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment subset at three parallelism levels")
	}
	stubClock(t)
	// A subset spanning batched figures, derived tables, and streaming
	// application models keeps the test quick while exercising the shared
	// session from many goroutines.
	cfg := reportConfig{
		req: serve.ReportRequest{Branches: 30000, Only: []string{
			"fig2", "fig5", "fig8", "table1", "thresholds", "multilevel", "fig9",
		}},
	}
	render := func(parallel int, segment uint64) string {
		var out, errW strings.Builder
		c := cfg
		c.engine.parallel = parallel
		c.req.SegmentBranches = segment
		if err := writeReport(&out, &errW, c); err != nil {
			t.Fatalf("parallel=%d segment=%d: %v", parallel, segment, err)
		}
		return out.String()
	}
	serial := render(1, 0)
	for _, parallel := range []int{2, 8} {
		if got := render(parallel, 0); got != serial {
			t.Errorf("report at -parallel=%d differs from serial output", parallel)
		}
	}

	// The segmented form of the engine must also agree byte for byte, at
	// any worker count. (The Run oracle in internal/sim checks both forms
	// below the report.)
	for _, parallel := range []int{1, 2, 8} {
		if got := render(parallel, 4096); got != serial {
			t.Errorf("segmented report at -parallel=%d differs from monolithic serial output", parallel)
		}
	}
}

// TestReportCacheStats: with -o the progress stream carries one "done in"
// line per experiment and nothing else; the tier counters print only under
// -cache-stats and -cache-stats-json.
func TestReportCacheStats(t *testing.T) {
	stubClock(t)
	var out, errW strings.Builder
	err := writeReport(&out, &errW, reportConfig{
		req:      serve.ReportRequest{Branches: 20000, Only: []string{"fig2", "fig5"}},
		engine:   engineConfig{parallel: 2},
		progress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range []string{"fig2", "fig5"} {
		fmt.Fprintf(&want, "%-20s done in 0.0s\n", id)
	}
	lines := strings.SplitAfter(errW.String(), "\n")
	sort.Strings(lines)
	if got := strings.Join(lines, ""); got != want.String() {
		t.Fatalf("progress output = %q, want %q", got, want.String())
	}
}
