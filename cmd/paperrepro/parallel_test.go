package main

import (
	"strings"
	"testing"
	"time"
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
		branches: 30000,
		filter: map[string]bool{
			"fig2": true, "fig5": true, "fig8": true, "table1": true,
			"thresholds": true, "multilevel": true, "fig9": true,
		},
	}
	render := func(parallel int, segment uint64) string {
		var out, errW strings.Builder
		c := cfg
		c.parallel = parallel
		c.segmentBranches = segment
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

// TestReportCacheStats checks the progress stream reports the session's
// cache behaviour when writing to a file (-o mode).
func TestReportCacheStats(t *testing.T) {
	stubClock(t)
	var out, errW strings.Builder
	err := writeReport(&out, &errW, reportConfig{
		branches: 20000,
		filter:   map[string]bool{"fig2": true, "fig5": true},
		progress: true,
		parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	progress := errW.String()
	if !strings.Contains(progress, "pass cache:") || !strings.Contains(progress, "trace cache:") ||
		!strings.Contains(progress, "annotated cache:") {
		t.Fatalf("progress output missing cache stats:\n%s", progress)
	}
}
