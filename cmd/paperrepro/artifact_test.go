package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/exp"
	"branchconf/internal/sim"
	"branchconf/internal/workload"
)

// resetEngineCaches empties every in-memory tier so the next writeReport
// behaves like a fresh process and must go through the disk store (or
// regenerate) rather than hitting the memos warmed by a previous run.
func resetEngineCaches() {
	workload.TraceTier.Reset()
	sim.AnnotatedTier.Reset()
	sim.BucketTier.Reset()
	exp.CurveTier.Reset()
	exp.ModelTier.Reset()
}

// cacheTier extracts one tier's counters from -cache-stats output.
func cacheTier(t *testing.T, errOut, tier string) (hits, misses, verifyFails uint64) {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`cache-stats %s\s+hits=(\d+) misses=(\d+) evictions=\d+ resident_bytes=\d+ verify_fails=(\d+)`, regexp.QuoteMeta(tier)))
	m := re.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("no %s cache-stats line in:\n%s", tier, errOut)
	}
	h, _ := strconv.ParseUint(m[1], 10, 64)
	mi, _ := strconv.ParseUint(m[2], 10, 64)
	v, _ := strconv.ParseUint(m[3], 10, 64)
	return h, mi, v
}

// diskTier extracts the artifact-disk counters from -cache-stats output.
func diskTier(t *testing.T, errOut string) (hits, misses, verifyFails uint64) {
	t.Helper()
	return cacheTier(t, errOut, "artifact-disk")
}

// storeRecord is one record's place in a pack of an artifact directory.
type storeRecord struct {
	pack   string
	off, n int64
}

// storeRecords walks every pack in an artifact directory and returns its
// records in pack-name and offset order, and the packs' total bytes,
// failing the test on any file that is not a pack: the one way these tests
// find records on disk.
func storeRecords(t *testing.T, dir string) (recs []storeRecord, packBytes uint64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if filepath.Ext(path) != ".pack" {
			t.Errorf("artifact directory holds a non-pack file %s", e.Name())
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.Stat()
		if err == nil {
			_, err = artifact.WalkPack(f, 0, info.Size(), func(_ uint16, _ string, off, n int64) {
				recs = append(recs, storeRecord{path, off, n})
			})
		}
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		packBytes += uint64(info.Size())
	}
	return recs, packBytes
}

// flip flips mask into byte i of the record, in place (a negative i counts
// from the record's end).
func (r storeRecord) flip(t *testing.T, i int64, mask byte) {
	t.Helper()
	if i < 0 {
		i += r.n
	}
	f, err := os.OpenFile(r.pack, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, r.off+i); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, r.off+i); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactWarmStart is the persistent tier's core guarantee, asserted
// end to end: cold, warm, store-disabled, and post-corruption runs of the
// same report are byte-identical — the disk store can change cost, never
// results — with disk hits visible on the warm run and corruption both
// detected and survived.
func TestArtifactWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the report subset four times")
	}
	stubClock(t)
	dir := t.TempDir()
	base := reportConfig{
		branches:   20000,
		filter:     map[string]bool{"fig2": true, "fig5": true, "fig9": true, "gating": true},
		parallel:   2,
		cacheStats: true,
	}
	run := func(artifactDir string) (report, errOut string) {
		t.Helper()
		resetEngineCaches()
		var out, errW strings.Builder
		cfg := base
		cfg.artifactDir = artifactDir
		if err := writeReport(&out, &errW, cfg); err != nil {
			t.Fatal(err)
		}
		return out.String(), errW.String()
	}

	cold, coldErr := run(dir)
	if hits, _, vf := diskTier(t, coldErr); hits != 0 || vf != 0 {
		t.Fatalf("cold run saw disk hits=%d verify_fails=%d, want 0/0", hits, vf)
	}
	if _, misses, _ := cacheTier(t, coldErr, "curve"); misses == 0 {
		t.Error("cold run built no curves through the curve tier")
	}
	if _, misses, _ := cacheTier(t, coldErr, "model-stats"); misses == 0 {
		t.Error("cold run ran no cycle models through the model tier")
	}
	records, _ := storeRecords(t, dir)
	if len(records) == 0 {
		t.Fatal("cold run persisted no artifacts")
	}
	if packs, _ := filepath.Glob(filepath.Join(dir, "*.pack")); len(packs) != 1 {
		t.Fatalf("cold run left %d packs, want exactly one", len(packs))
	}

	warm, warmErr := run(dir)
	if warm != cold {
		t.Error("warm report differs from cold report")
	}
	hits, misses, vf := diskTier(t, warmErr)
	if hits == 0 || vf != 0 {
		t.Errorf("warm run: disk hits=%d (want >0) verify_fails=%d (want 0)", hits, vf)
	}
	if misses != 0 {
		t.Errorf("warm run still missed the disk tier %d times", misses)
	}

	noStore, _ := run("")
	if noStore != cold {
		t.Error("storeless report differs from cold report")
	}

	// Flip one bit in the middle of every record: the third run must
	// detect every corruption, regenerate, and still produce the same
	// bytes.
	for _, r := range records {
		r.flip(t, r.n/2, 0x01)
	}
	healed, healedErr := run(dir)
	if healed != cold {
		t.Error("post-corruption report differs from cold report")
	}
	if _, _, vf := diskTier(t, healedErr); vf == 0 {
		t.Error("corrupted records were not detected")
	}

	// And the store healed: a fourth run is warm again.
	final, finalErr := run(dir)
	if final != cold {
		t.Error("post-heal report differs from cold report")
	}
	if hits, _, vf := diskTier(t, finalErr); hits == 0 || vf != 0 {
		t.Errorf("post-heal run: disk hits=%d (want >0) verify_fails=%d (want 0)", hits, vf)
	}
}

// TestArtifactDirAuto: "-artifact-dir auto" resolves to the user cache
// directory rather than being taken literally.
func TestArtifactDirAuto(t *testing.T) {
	stubClock(t)
	cacheRoot := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cacheRoot)
	var out, errW strings.Builder
	err := appMain([]string{"-artifact-dir", "auto", "-only", "fig2", "-branches", "5000"}, &out, &errW)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cacheRoot, "branchconf", "artifacts", "*.pack"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("auto dir persisted no artifacts under %s (err=%v)", cacheRoot, err)
	}
}
