package exp

import (
	"bytes"
	"sync"
	"testing"

	"branchconf/internal/workload"
)

// TestExperimentsDeterministic runs a representative slice of the registry
// twice and requires byte-identical artefacts — the repository's
// reproducibility guarantee (README "Determinism"). Every class of
// experiment is covered: static profiling, one-level ideal, counter
// tables, per-benchmark runs, and an application model.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check runs experiments twice")
	}
	cfg := Config{Branches: 40000}
	for _, id := range []string{"fig2", "fig5", "table1", "fig9", "gating"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		run := func() []byte {
			o, err := e.Run(NewSession(cfg))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var buf bytes.Buffer
			buf.WriteString(o.Text)
			if err := o.WriteJSON(&buf, 0); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs produced different artefacts", id)
		}
	}
}

// artefactBytes renders an output's text plus canonical JSON for
// byte-comparison.
func artefactBytes(t *testing.T, o *Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(o.Text)
	if err := o.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedSessionMatchesIsolatedRuns is the engine's byte-identity
// guarantee: experiments run concurrently against one shared session —
// traces replayed from the materialization cache, sibling mechanisms
// batched into shared predictor passes, results reused across experiments
// — must produce artefacts byte-identical to isolated one-experiment-per-
// session runs against freshly generated traces. The set covers every
// sharing mode: cross-experiment pass reuse (fig2/fig5/table1), batched
// fan-out (fig5/fig8), per-benchmark reads from cached passes (fig9),
// derived estimators and level ladders (thresholds/multilevel), mixed
// streaming+cached experiments (strength, static-realistic), and the
// single-pass replication batch.
func TestSharedSessionMatchesIsolatedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a registry slice twice")
	}
	ids := []string{
		"fig2", "fig5", "fig8", "table1", "fig9",
		"thresholds", "multilevel", "strength", "static-realistic", "replication",
	}
	cfg := Config{Branches: 30000}

	// Isolated reference runs: fresh session per experiment, traces
	// regenerated from the synthetic walk (cold materialization cache).
	want := make(map[string][]byte)
	for _, id := range ids {
		workload.TraceTier.Reset()
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		o, err := e.Run(NewSession(cfg))
		if err != nil {
			t.Fatalf("%s (isolated): %v", id, err)
		}
		want[id] = artefactBytes(t, o)
	}
	workload.TraceTier.Reset()

	// Shared engine run: all experiments concurrently on one session.
	session := NewSession(cfg)
	got := make(map[string][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := ByID(id)
			if err != nil {
				t.Error(err)
				return
			}
			o, err := e.Run(session)
			if err != nil {
				t.Errorf("%s (shared): %v", id, err)
				return
			}
			b := artefactBytes(t, o)
			mu.Lock()
			got[id] = b
			mu.Unlock()
		}()
	}
	wg.Wait()

	for _, id := range ids {
		if !bytes.Equal(got[id], want[id]) {
			t.Errorf("%s: shared-session artefact differs from isolated run", id)
		}
	}
	if hits, misses := session.Stats(); misses == 0 || hits == 0 {
		t.Errorf("pass cache did not both hit and miss (hits=%d misses=%d)", hits, misses)
	}
}
