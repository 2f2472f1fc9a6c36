// Pipeline-gating example: the follow-on application built directly on
// this paper's confidence estimators (Manne, Klauser & Grunwald, ISCA
// '98). A cycle-driven front end stalls fetch while too many
// low-confidence branches are in flight, trading a little IPC for a large
// cut in wrong-path (wasted) fetch work. The oracle row shows the bound a
// perfect estimator would reach.
//
// Run with:
//
//	go run ./examples/gating
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// oracle is a perfect confidence signal: low exactly on mispredictions.
type oracle struct{ pred predictor.Predictor }

func (o oracle) Confident(r trace.Record) bool { return o.pred.Predict(r) == r.Taken }
func (o oracle) Update(trace.Record, bool)     {}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares gating policies on real_gcc and writes the table to w.
func run(w io.Writer) error {
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		return err
	}
	mach := pipeline.Default96()
	fmt.Fprintf(w, "benchmark %s, %d-wide fetch, depth %d\n\n", spec.Name, mach.FetchWidth, mach.Depth)
	fmt.Fprintln(w, "policy             IPC    wasted fetch    gate stalls")
	type row struct {
		label  string
		gate   int
		thr    uint64
		oracle bool
	}
	for _, p := range []row{
		{"ungated", 0, 0, false},
		{"est8 / gate 4", 4, 8, false},
		{"est4 / gate 2", 2, 4, false},
		{"est2 / gate 1", 1, 2, false},
		{"oracle / gate 1", 1, 0, true},
	} {
		src, err := spec.FiniteSource(400_000)
		if err != nil {
			return err
		}
		pred := predictor.Gshare4K()
		var est pipeline.ConfidenceSignal
		switch {
		case p.oracle:
			est = oracle{pred: pred}
		case p.gate > 0:
			est = core.PaperEstimator(p.thr)
		}
		cfg := mach
		cfg.GateThreshold = p.gate
		st, err := pipeline.Run(src, pred, est, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %5.2f   %11.1f%%   %10d\n",
			p.label, st.IPC(), 100*st.WasteFrac(), st.GateStalls)
	}
	fmt.Fprintln(w, "\nTighter gates save more wrong-path work but stall correct-path fetch;")
	fmt.Fprintln(w, "the oracle shows that a perfect estimator would cut nearly all waste")
	fmt.Fprintln(w, "for free.")
	return nil
}
