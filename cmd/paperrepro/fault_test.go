package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/faultfs"
	"branchconf/internal/serve"
)

// TestArtifactFaultMatrix is the fail-soft tier's end-to-end invariant:
// under every injected fault class — ENOSPC, EIO, EACCES, partial writes,
// a writer crashing inside or just after an append, and a seeded random
// storm — a report produced through the artifact store is byte-identical
// to a run without a store, and after the outage ends the directory holds
// nothing but packs, whose bytes the next Open counts in full. Faults
// change cost and health counters, never report bytes; -artifact-strict
// (exercised separately below) is the only way a store fault becomes a run
// failure.
func TestArtifactFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the report subset once per fault class")
	}
	stubClock(t)
	base := reportConfig{
		req:        serve.ReportRequest{Branches: 10000, Only: []string{"fig2", "fig5"}},
		engine:     engineConfig{parallel: 2},
		cacheStats: true,
	}
	run := func(t *testing.T, dir string, fsys artifact.FS) (report, errOut string, err error) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		cfg := base
		cfg.store.dir = dir
		cfg.store.fs = fsys
		err = writeReport(&out, &errW, cfg)
		return out.String(), errW.String(), err
	}

	resetEngineCaches()
	var baselineOut, baselineErr strings.Builder
	if err := writeReport(&baselineOut, &baselineErr, base); err != nil { // no artifact dir at all
		t.Fatal(err)
	}
	baseline := baselineOut.String()

	scenarios := []struct {
		name    string
		prewarm bool // populate the store cleanly first, so read paths are live
		arm     func(f *faultfs.FS)
	}{
		{"enospc-every-stage", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.ENOSPC})
		}},
		{"enospc-every-write", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpWrite, Err: syscall.ENOSPC})
		}},
		{"eio-read-transient", true, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Nth: 1, Err: syscall.EIO})
		}},
		{"eio-read-persistent", true, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Err: syscall.EIO})
		}},
		{"eacces-every-create", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.EACCES})
		}},
		{"eacces-chtimes", true, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpChtimes, Err: syscall.EACCES})
		}},
		{"partial-write", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 1, Err: syscall.EIO, Mode: faultfs.PartialWrite})
		}},
		{"crash-mid-append", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 1, Err: syscall.EIO, Mode: faultfs.CrashMidAppend})
		}},
		{"crash-after-append", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpWrite, Nth: 1, Err: syscall.EIO, Mode: faultfs.CrashAfterAppend})
		}},
		{"open-mkdir-eacces", false, func(f *faultfs.FS) {
			f.Inject(faultfs.Fault{Op: faultfs.OpMkdirAll, Err: syscall.EACCES})
		}},
		{"seeded-storm", true, func(f *faultfs.FS) {
			f.SeedRandom(42, 0.3, syscall.EIO, syscall.ENOSPC, syscall.EACCES)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(artifact.OSFS())
			if sc.prewarm {
				if _, _, err := run(t, dir, ffs); err != nil {
					t.Fatalf("prewarm: %v", err)
				}
			}
			sc.arm(ffs)
			report, errOut, err := run(t, dir, ffs)
			if err != nil {
				t.Fatalf("fail-soft run failed hard: %v", err)
			}
			if report != baseline {
				t.Error("report under injected faults diverges from the -no-artifact baseline")
			}
			if !strings.Contains(errOut, "cache-stats artifact-disk") {
				t.Fatalf("no artifact-disk cache-stats line in:\n%s", errOut)
			}
			if ffs.Injected() == 0 && sc.name != "eacces-chtimes" {
				t.Fatal("scenario injected no faults; the matrix proved nothing")
			}

			// The outage ends (process restart on healthy media): the
			// faults left nothing but packs, and the next Open accounts
			// for every byte of them, torn tails included.
			ffs.Clear()
			reopened, err := artifact.Open(dir, 0)
			if err != nil {
				t.Fatalf("reopen after outage: %v", err)
			}
			if _, packBytes := storeRecords(t, dir); reopened.Stats().ResidentBytes != packBytes {
				t.Errorf("reopened store counts %d resident bytes, packs hold %d", reopened.Stats().ResidentBytes, packBytes)
			}

			// And the store heals: a clean run still matches the baseline.
			healed, _, err := run(t, dir, nil)
			if err != nil {
				t.Fatalf("healed run: %v", err)
			}
			if healed != baseline {
				t.Error("healed report diverges from baseline")
			}
		})
	}
}

// TestArtifactDegradedModeObservable: a run that trips the breaker still
// completes with baseline-identical output, and the degradation is visible
// in -cache-stats (degraded=true with op errors counted).
func TestArtifactDegradedModeObservable(t *testing.T) {
	stubClock(t)
	base := reportConfig{
		req:        serve.ReportRequest{Branches: 5000, Only: []string{"fig2"}},
		engine:     engineConfig{parallel: 2},
		cacheStats: true,
	}
	resetEngineCaches()
	var baseOut, baseErr strings.Builder
	if err := writeReport(&baseOut, &baseErr, base); err != nil {
		t.Fatal(err)
	}

	ffs := faultfs.New(artifact.OSFS())
	ffs.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.ENOSPC})
	resetEngineCaches()
	var out, errW strings.Builder
	cfg := base
	cfg.store.dir = t.TempDir()
	cfg.store.fs = ffs
	if err := writeReport(&out, &errW, cfg); err != nil {
		t.Fatalf("degraded run failed hard: %v", err)
	}
	if out.String() != baseOut.String() {
		t.Error("degraded run changed the report bytes")
	}
	re := regexp.MustCompile(`cache-stats artifact-disk\s+.*op_errors=(\d+) degraded=(\w+)`)
	m := re.FindStringSubmatch(errW.String())
	if m == nil {
		t.Fatalf("no artifact-disk health columns in:\n%s", errW.String())
	}
	if m[1] == "0" || m[2] != "true" {
		t.Errorf("breaker trip not observable: op_errors=%s degraded=%s", m[1], m[2])
	}
}

// TestArtifactStrictFailsHard: -artifact-strict turns the first classified
// store failure into a run failure — no report bytes, a classified error —
// where the default policy would have degraded and completed.
func TestArtifactStrictFailsHard(t *testing.T) {
	stubClock(t)
	ffs := faultfs.New(artifact.OSFS())
	ffs.Inject(faultfs.Fault{Op: faultfs.OpCreateTemp, Err: syscall.ENOSPC})
	resetEngineCaches()
	var out, errW strings.Builder
	err := writeReport(&out, &errW, reportConfig{
		req:    serve.ReportRequest{Branches: 5000, Only: []string{"fig2"}},
		engine: engineConfig{parallel: 2},
		store:  storeConfig{dir: t.TempDir(), fs: ffs, strict: true},
	})
	if err == nil {
		t.Fatal("strict run with a full disk succeeded")
	}
	if !strings.Contains(err.Error(), "permanent") {
		t.Errorf("strict error %q does not classify the failure", err)
	}
	if out.Len() != 0 {
		t.Error("strict failure still wrote report bytes")
	}

	// Strict open failure surfaces immediately too.
	ffs = faultfs.New(artifact.OSFS())
	ffs.Inject(faultfs.Fault{Op: faultfs.OpMkdirAll, Err: syscall.EACCES})
	resetEngineCaches()
	out.Reset()
	err = writeReport(&out, &errW, reportConfig{
		req:    serve.ReportRequest{Branches: 5000, Only: []string{"fig2"}},
		engine: engineConfig{parallel: 1},
		store:  storeConfig{dir: filepath.Join(t.TempDir(), "unmakeable"), fs: ffs, strict: true},
	})
	if err == nil {
		t.Fatal("strict run with an uncreatable store directory succeeded")
	}
}
