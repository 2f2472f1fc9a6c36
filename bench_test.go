package branchconf_test

// Per-component microbenchmarks: the per-branch cost of predictors,
// confidence mechanisms, workload generation, trace replay and batched
// runs. The paper's tables and figures are regenerated by paperrepro
// (paperrepro -only <id> for one of them), and perfbench times each
// experiment on that report path.

import (
	"strconv"
	"testing"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// benchTrace materialises a fixed workload prefix once for throughput
// benchmarks.
var benchTraceCache trace.Trace

func benchTrace(b *testing.B) trace.Trace {
	b.Helper()
	if benchTraceCache != nil {
		return benchTraceCache
	}
	spec, err := workload.ByName("groff")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.FiniteSource(1 << 17)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Collect(src, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchTraceCache = tr
	return tr
}

func benchPredictor(b *testing.B, p predictor.Predictor) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i%len(tr)]
		_ = p.Predict(r)
		p.Update(r)
	}
}

func BenchmarkPredictorGshare64K(b *testing.B) { benchPredictor(b, predictor.Gshare64K()) }
func BenchmarkPredictorGshare4K(b *testing.B)  { benchPredictor(b, predictor.Gshare4K()) }
func BenchmarkPredictorBimodal(b *testing.B)   { benchPredictor(b, predictor.NewBimodal(12)) }
func BenchmarkPredictorTournament(b *testing.B) {
	benchPredictor(b, predictor.NewTournament(predictor.NewBimodal(12), predictor.NewGshare(12, 12), 12))
}

func benchMechanism(b *testing.B, m core.Mechanism) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i%len(tr)]
		_ = m.Bucket(r)
		m.Update(r, i%16 == 0)
	}
}

func BenchmarkMechanismOneLevelCIR(b *testing.B) {
	benchMechanism(b, core.PaperOneLevel(core.IndexPCxorBHR))
}
func BenchmarkMechanismResetting(b *testing.B) { benchMechanism(b, core.PaperResetting()) }
func BenchmarkMechanismTwoLevel(b *testing.B) {
	benchMechanism(b, core.NewTwoLevel(core.TwoLevelConfig{Scheme1: core.IndexPCxorBHR, Scheme2: core.L2CIR}))
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, err := workload.ByName("groff")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures per-branch replay cost from a materialized
// buffer — the read path every cached simulation pass rides on (compare
// BenchmarkWorkloadGeneration for the walk it replaces).
func BenchmarkTraceReplay(b *testing.B) {
	spec, err := workload.ByName("groff")
	if err != nil {
		b.Fatal(err)
	}
	buf, err := workload.Materialize(spec, 1<<17)
	if err != nil {
		b.Fatal(err)
	}
	src := buf.Source()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Next(); err != nil {
			src = buf.Source() // wrap around at EOF
		}
	}
}

// BenchmarkRunBatch measures the single-pass fan-out: one trace, one
// predictor, N mechanisms per pass. One op is one dynamic branch through
// the whole batch, so ns/op at width 8 vs 8× the width-1 figure is the
// saving from sharing the predictor and trace walk across mechanisms.
func BenchmarkRunBatch(b *testing.B) {
	tr := benchTrace(b)
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(width)+"mechs", func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += len(tr) {
				mechs := make([]core.Mechanism, width)
				for i := range mechs {
					mechs[i] = core.PaperResetting()
				}
				if _, err := sim.RunBatch(tr.Source(), predictor.Gshare64K(), mechs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeparateRuns is the pre-batching baseline for BenchmarkRunBatch/
// 8mechs: the same eight mechanisms simulated as eight independent passes,
// each regenerating predictor state and re-walking the trace.
func BenchmarkSeparateRuns(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(tr) {
		for i := 0; i < 8; i++ {
			if _, err := sim.RunBatch(tr.Source(), predictor.Gshare64K(),
				[]core.Mechanism{core.PaperResetting()}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
