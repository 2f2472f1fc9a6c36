package sim

import (
	"crypto/sha256"
	"sync"
	"testing"

	"branchconf/internal/analysis"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
)

// TestDigestMemoSharedAcrossCopies: once a pass memoizes its digests,
// concurrent Digest calls on independent copies of one run all see the
// same value and hash it exactly once. Run under -race in CI.
func TestDigestMemoSharedAcrossCopies(t *testing.T) {
	res, err := Run(smallTrace(3000).Source(), predictor.NewBimodal(10), core.PaperResetting())
	if err != nil {
		t.Fatal(err)
	}
	res.Benchmark = "smalltrace"
	want := analysis.HashRun(res.Buckets)

	before := DigestsComputed()
	if res.Digest() != want || res.Digest() != want {
		t.Fatal("unmemoized digest differs from HashRun")
	}
	if n := DigestsComputed() - before; n != 2 {
		t.Fatalf("unmemoized run hashed %d times over two calls, want 2", n)
	}

	sr := SuiteResult{Runs: []Result{res}}
	sr.MemoizeDigests()
	before = DigestsComputed()
	const callers = 16
	got := make([][sha256.Size]byte, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		g := g
		run, err := sr.ByName(res.Benchmark) // an independent copy
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run.Digest()
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Fatalf("caller %d: digest %x, want %x", g, d, want)
		}
	}
	if n := DigestsComputed() - before; n != 1 {
		t.Fatalf("%d concurrent callers hashed the memoized run %d times, want 1", callers, n)
	}
}
