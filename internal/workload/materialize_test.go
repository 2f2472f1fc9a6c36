package workload

import (
	"os"
	"sync"
	"testing"

	"branchconf/internal/trace"
)

func TestMaterializeMatchesFiniteSource(t *testing.T) {
	defer TraceTier.Reset()
	spec, err := ByName("groff")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	buf, err := Materialize(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("materialized %d records, want %d", buf.Len(), n)
	}
	src, err := spec.FiniteSource(n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(buf.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: replay %+v, direct %+v", i, got[i], want[i])
		}
	}
}

func TestMaterializeDefaultBudget(t *testing.T) {
	// n == 0 resolves to the spec's DefaultBranches, so the zero budget
	// shares a cache entry with the explicit default.
	defer TraceTier.Reset()
	spec, err := ByName("jpeg_play")
	if err != nil {
		t.Fatal(err)
	}
	spec.DefaultBranches = 5000 // keep the test fast
	a, err := Materialize(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5000 {
		t.Fatalf("default budget materialized %d records", a.Len())
	}
	b, err := Materialize(spec, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("zero and explicit default budgets did not share a cache entry")
	}
}

// TestMaterializeConcurrent hammers one key from many goroutines: exactly
// one generation must happen and every caller must see the same buffer.
// Run under -race this also checks the memo's synchronisation.
func TestMaterializeConcurrent(t *testing.T) {
	TraceTier.Reset()
	defer TraceTier.Reset()
	spec, err := ByName("gs")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	bufs := make([]*trace.ReplayBuffer, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, err := Materialize(spec, 10000)
			if err != nil {
				t.Error(err)
				return
			}
			bufs[i] = buf
		}()
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if bufs[i] != bufs[0] {
			t.Fatal("concurrent callers saw different buffers")
		}
	}
	st := TraceTier.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly one generation", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
	}
	if st.ResidentBytes == 0 {
		t.Fatal("footprint not accounted")
	}
}

func TestMaterializeDistinctKeys(t *testing.T) {
	TraceTier.Reset()
	defer TraceTier.Reset()
	spec, err := ByName("nroff")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Materialize(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed++
	b, err := Materialize(other, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds shared a cache entry")
	}
	if misses := TraceTier.Stats().Misses; misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

// TestMaterializeRetriesAfterError: a failed materialization is not
// cached. A trace file that is briefly unreadable fails the call made
// meanwhile, and the next call after the file is back succeeds instead of
// replaying the stale error for the life of the process.
func TestMaterializeRetriesAfterError(t *testing.T) {
	const n = 2000
	path := writeTestTrace(t, t.TempDir(), n)
	spec, err := TraceSpec("", path)
	if err != nil {
		t.Fatal(err)
	}
	away := path + ".away"
	if err := os.Rename(path, away); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(spec, n); err == nil {
		t.Fatal("materialized a trace whose file is gone")
	}
	if err := os.Rename(away, path); err != nil {
		t.Fatal(err)
	}
	buf, err := Materialize(spec, n)
	if err != nil {
		t.Fatalf("materialize after the file came back: %v", err)
	}
	if buf.Len() != n {
		t.Fatalf("materialized %d records, want %d", buf.Len(), n)
	}
}
