package exp

import (
	"reflect"
	"strings"
	"testing"

	"branchconf/internal/workload"
)

// TestLongHorizonStreamingMatchesMonolithic: the long-horizon sweep must
// produce byte-identical text whether its suite passes stream in segments
// or materialize whole traces, and it must be opt-in so default report
// runs skip it.
func TestLongHorizonStreamingMatchesMonolithic(t *testing.T) {
	e, err := ByID("longhorizon")
	if err != nil {
		t.Fatal(err)
	}
	if !e.OptIn {
		t.Fatal("longhorizon must be OptIn")
	}
	mono, err := e.Run(NewSession(Config{Branches: 20000}))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := e.Run(NewSession(Config{Branches: 20000, SegmentBranches: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	if mono.Text != stream.Text {
		t.Fatalf("streaming long-horizon sweep diverges:\nmono:\n%s\nstream:\n%s", mono.Text, stream.Text)
	}
	// Three horizons of the budget, each with a miss rate and three
	// coverage columns.
	if lines := strings.Count(mono.Text, "\n"); lines != 4 {
		t.Fatalf("expected header + 3 horizon rows, got %d lines:\n%s", lines, mono.Text)
	}
	for _, h := range []string{"1250", "5000", "20000"} {
		if !strings.Contains(mono.Text, h) {
			t.Errorf("horizon %s missing from sweep:\n%s", h, mono.Text)
		}
	}
}

// TestSessionStreamingSuiteMatches: a whole session configured to stream
// produces the same suite results as a monolithic one — the exp-layer
// wiring of Config.SegmentBranches down to the sim engine.
func TestSessionStreamingSuiteMatches(t *testing.T) {
	mono := NewSession(Config{Branches: 15000})
	stream := NewSession(Config{Branches: 15000, SegmentBranches: 2048})
	a, err := mono.SuiteOne(predGshare64K, mechResetting)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.SuiteOne(predGshare64K, mechResetting)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("streaming session suite diverges from monolithic")
	}
}

// TestSegmentedSessionMaterializesNoTrace: a segmented session's sources
// stream from the generator, so the cycle models and ctxswitch-mix, which
// read them directly, never put a whole trace in the unbounded trace memo.
// Their text still equals the monolithic session's.
func TestSegmentedSessionMaterializesNoTrace(t *testing.T) {
	ids := []string{"pipeline", "dualpath-ipc", "apps", "gating", "ablation-costsplit", "ctxswitch-mix"}
	render := func(cfg Config) map[string]string {
		// Model counts are keyed without the segment size: drop them so
		// each session computes its own.
		ModelTier.Reset()
		s := NewSession(cfg)
		out := map[string]string{}
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			o, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = o.Text
		}
		return out
	}
	defer ModelTier.Reset()
	defer workload.TraceTier.Reset()
	workload.TraceTier.Reset()
	segmented := render(Config{Branches: 3000, SegmentBranches: 512})
	if got := workload.TraceTier.Stats().Misses; got != 0 {
		t.Errorf("segmented session materialized %d traces", got)
	}
	if mono := render(Config{Branches: 3000}); !reflect.DeepEqual(segmented, mono) {
		t.Error("segmented session renders differently from the monolithic one")
	}
}
