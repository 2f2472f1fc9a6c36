// Dual-path execution example (paper §1, application 1): fork a second
// fetch path only for low-confidence predictions and measure how many
// misprediction penalties the forks absorb, sweeping the confidence
// threshold to expose the resource/coverage trade-off.
//
// Run with:
//
//	go run ./examples/dualpath
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

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sweeps the estimator threshold on real_gcc and writes the table
// to w.
func run(w io.Writer) error {
	spec, err := workload.ByName("real_gcc") // the hardest benchmark
	if err != nil {
		return err
	}
	cfg := apps.DefaultDualPath()
	fmt.Fprintf(w, "benchmark %s, penalty %d cycles, fork cost %d cycle(s), %d thread(s)\n\n",
		spec.Name, cfg.MispredictPenalty, cfg.ForkPenalty, cfg.MaxThreads)
	fmt.Fprintln(w, "threshold | fork (frac of branches) | coverage (frac of misses) | penalty savings")
	for _, thr := range []uint64{1, 4, 8, 16} {
		src, err := spec.FiniteSource(500_000)
		if err != nil {
			return err
		}
		res, err := apps.RunDualPath(src, predictor.Gshare64K(), core.PaperEstimator(thr), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%9d | %22.1f%% | %24.1f%% | %14.1f%%\n",
			thr, 100*res.ForkRate(), 100*res.Coverage(), 100*res.PenaltySavings())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Low thresholds fork rarely and cover only the hottest mispredictions;")
	fmt.Fprintln(w, "threshold 16 (the paper's 20 percent-of-branches point) covers most of them.")
	return nil
}
