package sim

import (
	"reflect"
	"testing"

	"branchconf/internal/artifact"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

// TestStreamingCheckpointResumeTagePerceptron pins the satellite contract
// for the new predictors: a kill/resume at a segment boundary — modeled by
// dropping a mid-run segment's annotated stream so the next run must
// revive the predictor from its boundary checkpoint — reproduces the
// monolithic results byte-identically, and does it through the checkpoint
// codec, NOT through the silent forceLive fallback (VerifyFails == 0). A
// codec bug in MarshalState/RestoreState would otherwise hide as a perf
// regression here instead of a failure.
func TestStreamingCheckpointResumeTagePerceptron(t *testing.T) {
	for _, predKey := range []string{"tage", "perceptron"} {
		t.Run(predKey, func(t *testing.T) {
			defer AnnotatedTier.Reset()
			defer workload.TraceTier.Reset()
			AnnotatedTier.Reset()
			workload.TraceTier.Reset()
			s, err := artifact.Open(t.TempDir(), 256<<20)
			if err != nil {
				t.Fatal(err)
			}
			artifact.SetDefault(s)
			defer artifact.SetDefault(nil)

			const (
				n       = 5000
				segSize = 997
			)
			spec := workload.Suite()[0]
			newPred := func() predictor.Predictor {
				p, err := predictor.Build(predKey)
				if err != nil {
					panic(err)
				}
				return p
			}
			mechs := []func() core.Mechanism{
				func() core.Mechanism { return core.PaperResetting() },
				// State-coupled: consumes the predictor's native-confidence
				// annotation lane through segmented replay.
				func() core.Mechanism { return core.NewNativeConfidence() },
			}

			// Monolithic reference, then a cold streaming run that plants
			// segment payloads and boundary checkpoints.
			mono, err := RunSuiteAnnotated(SuiteConfig{Branches: n, Specs: []workload.Spec{spec}}, predKey, newPred, mechs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := SuiteConfig{Branches: n, Specs: []workload.Spec{spec}, SegmentBranches: segSize}
			want, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, mono) {
				t.Fatal("streaming run diverges from monolithic")
			}

			// Kill/resume: segment 2's annotated stream is gone, so the run
			// must restore the predictor checkpoint taken at branch 2*segSize
			// and re-annotate only that segment.
			s.Drop(artifact.KindAnnotatedStream, annSegKey(spec, n, predKey, segSize, 2))
			ResetStreamStats()
			streamCkptRestores.Store(0)
			resumed, err := RunSuiteAnnotated(cfg, predKey, newPred, mechs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resumed, want) {
				t.Fatal("checkpoint-resumed run diverges from the uninterrupted run")
			}
			if restores := streamCkptRestores.Load(); restores == 0 {
				t.Fatal("resume did not restore any checkpoint")
			}
			if rep := StreamReport(); rep.VerifyFails != 0 {
				t.Fatalf("resume fell back to forceLive %d times: checkpoint codec rejected its own state", rep.VerifyFails)
			}
		})
	}
}
