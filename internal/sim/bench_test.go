package sim

import (
	"testing"

	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Stage-kernel benchmarks for the two-stage engine, per pass over a 100k-
// branch materialized trace. The interesting comparison is
// RunBatchInterleaved (what every mechanism-variant pass cost under the
// single-stage engine: varint decode + predictor walk + mechanism) against
// AnnotateStage once plus ReplayStage per variant (flat fetch + mechanism).

const benchBranches = 100_000

func benchBuffer(b *testing.B) *trace.ReplayBuffer {
	b.Helper()
	spec, err := workload.ByName("groff")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.FiniteSource(benchBranches)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := trace.Materialize(src, 0)
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

func BenchmarkRunBatchInterleaved(b *testing.B) {
	buf := benchBuffer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(buf.Source(), predictor.Gshare64K(), []core.Mechanism{core.PaperResetting()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnotateStage(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Annotate(flat, predictor.Gshare64K())
	}
}

func BenchmarkFlattenStage(b *testing.B) {
	buf := benchBuffer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Flatten()
	}
}

func BenchmarkReplayStage(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayAnnotated(flat, ann, []core.Mechanism{core.PaperResetting()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayStageCoupled replays the predictor-coupled strength
// mechanism from the captured state lane — the pass that previously forced
// its own interleaved predictor walk.
func BenchmarkReplayStageCoupled(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayAnnotated(flat, ann, []core.Mechanism{core.NewCounterStrength()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayStageOneLevel is the stage-2 cost of one CIR-table
// variant — the per-variant pass the stage-3 tally engine replaces.
func BenchmarkReplayStageOneLevel(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayAnnotated(flat, ann, []core.Mechanism{core.PaperOneLevel(core.IndexPCxorBHR)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBucketStreamBuild is the stage-3 once-per-geometry cost: the
// fused monomorphic kernel counting the base histogram in one walk.
// Compare against BenchmarkReplayStageOneLevel — the same walk through
// the interface-dispatched replay path.
func BenchmarkBucketStreamBuild(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	fm := core.PaperOneLevel(core.IndexPCxorBHR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bs := tallyWalk(flat, ann, fm, nil); len(bs.Stats()) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkTallyLaneKernel is the standalone word-parallel tally kernel —
// the fallback for lanes too wide for a fused dense histogram.
func BenchmarkTallyLaneKernel(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	fm := core.PaperOneLevel(core.IndexPCxorBHR)
	lane := bitvec.NewDense(fm.BucketWidth(), flat.Len())
	fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := tallyLane(lane, ann.MissWords(), ann.Len()); len(s) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkTallyVariant is the stage-3 marginal cost of one extra variant
// over an already-built bucket stream: sharing the immutable base
// histogram, O(1) — this is what collapses the per-variant O(branches)
// replay.
func BenchmarkTallyVariant(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	bs := tallyWalk(flat, ann, core.PaperOneLevel(core.IndexPCxorBHR), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := bs.Stats(); len(s) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFillKernel is one whole-trace walk of each fill kernel the
// engine runs, as the lane-carrying walk (lane) and the histogram-only
// walk every bucket-stream build makes (hist).
func BenchmarkFillKernel(b *testing.B) {
	flat := benchBuffer(b).Flatten()
	ann := Annotate(flat, predictor.Gshare64K())
	for _, k := range []struct {
		name string
		fm   core.Factorable
	}{
		{"onelevel", core.PaperOneLevel(core.IndexPCxorBHR)},
		{"twolevel", core.PaperTwoLevels()[0]},
		{"resetting", core.PaperResetting()},
	} {
		width := k.fm.BucketWidth()
		counts := make([]uint32, 2<<width)
		b.Run(k.name+"/lane", func(b *testing.B) {
			lane := bitvec.NewDense(width, flat.Len())
			for i := 0; i < b.N; i++ {
				lane.Reset()
				clear(counts)
				k.fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, counts)
			}
		})
		b.Run(k.name+"/hist", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(counts)
				k.fm.FillBucketLane(flat.Records(), ann.MissWords(), nil, counts)
			}
		})
	}
}
