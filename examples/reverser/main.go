// Prediction-reverser example (paper §1, application 4): profile which
// confidence buckets mispredict more than half the time, then invert those
// predictions. The paper's own Table 1 hints the set is usually empty for
// a strong predictor — this example shows it appearing on the small
// predictor and on a loosened threshold.
//
// Run with:
//
//	go run ./examples/reverser
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"branchconf/internal/apps"
	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

func study(w io.Writer, bench string, newPred func() predictor.Predictor, newMech func() core.Mechanism, threshold float64) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	profile, err := spec.FiniteSource(500_000)
	if err != nil {
		return err
	}
	eval, err := spec.FiniteSource(500_000)
	if err != nil {
		return err
	}
	res, setSize, err := apps.ReverserStudy(profile, eval, newPred, newMech, threshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s thr %.2f  set %2d  base %.3f%%  reversed %.3f%%  delta %+.4f%%  (%d reversals, %d fixed)\n",
		bench, threshold, setSize,
		100*float64(res.BaseMisses)/float64(res.Branches),
		100*float64(res.ReversedMisses)/float64(res.Branches),
		100*res.Delta(), res.Reversals, res.GoodReversals)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run studies the reverser on three predictor setups and writes the rows
// to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "big predictor (gshare-64K), strict >55% threshold:")
	if err := study(w, "real_gcc",
		func() predictor.Predictor { return predictor.Gshare64K() },
		func() core.Mechanism { return core.PaperResetting() }, 0.55); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nsmall predictor (gshare-4K), small confidence table:")
	for _, bench := range []string{"real_gcc", "sdet", "groff"} {
		if err := study(w, bench,
			func() predictor.Predictor { return predictor.Gshare4K() },
			func() core.Mechanism { return core.SmallResetting(10) }, 0.55); err != nil {
			return err
		}
	}
	// The historically grounded configuration (Livermore S-1, PowerPC 601,
	// discussed in the paper's related work): a static predictor plus a
	// dynamic "reverse bit". With BTFN as the base predictor, branches
	// whose static guess is wrong sit in >50% buckets and get reversed —
	// the reverser effectively upgrades static to dynamic prediction.
	fmt.Fprintln(w, "\nstatic BTFN predictor + dynamic reverse bits (S-1 style):")
	for _, bench := range []string{"real_gcc", "groff", "jpeg_play"} {
		if err := study(w, bench,
			func() predictor.Predictor { return predictor.BTFN{} },
			func() core.Mechanism {
				return core.NewCounterTable(core.CounterConfig{
					Kind: core.Resetting, Scheme: core.IndexPC, TableBits: 14, HistoryBits: 14})
			}, 0.5); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nA negative delta means the reverser removed mispredictions; an empty")
	fmt.Fprintln(w, "set reproduces the paper's caveat that no bucket exceeds 50% for the")
	fmt.Fprintln(w, "well-tuned large predictor, while the static-base configuration shows")
	fmt.Fprintln(w, "where reversal pays.")
	return nil
}
