// Quickstart: pair a branch predictor with the paper's recommended
// confidence estimator (resetting counters, PC xor BHR) and watch it
// isolate mispredictions into a small low-confidence set.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"branchconf/internal/core"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run pairs gshare-64K with the paper's estimator on groff and writes the
// summary to w.
func run(w io.Writer) error {
	// A synthetic benchmark standing in for the paper's IBS traces.
	spec, err := workload.ByName("groff")
	if err != nil {
		return err
	}
	src, err := spec.FiniteSource(500_000)
	if err != nil {
		return err
	}

	// The paper's main predictor (gshare, 2^16 two-bit counters) and its
	// recommended confidence estimator: a 2^16-entry table of resetting
	// counters; counter < 16 means "low confidence".
	pred := predictor.Gshare64K()
	conf := core.PaperEstimator(16)

	var branches, misses, low, lowMisses uint64
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		confident := conf.Confident(r) // read the signal before training
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		conf.Update(r, incorrect)

		branches++
		if !confident {
			low++
		}
		if incorrect {
			misses++
			if !confident {
				lowMisses++
			}
		}
	}

	fmt.Fprintf(w, "benchmark       %s\n", spec.Name)
	fmt.Fprintf(w, "branches        %d\n", branches)
	fmt.Fprintf(w, "mispredictions  %d (%.2f%%)\n", misses, 100*float64(misses)/float64(branches))
	fmt.Fprintf(w, "low-confidence  %.1f%% of branches\n", 100*float64(low)/float64(branches))
	fmt.Fprintf(w, "coverage        %.1f%% of mispredictions land in the low set\n",
		100*float64(lowMisses)/float64(misses))
	fmt.Fprintf(w, "enrichment      low set misprediction rate %.1f%% vs %.2f%% overall\n",
		100*float64(lowMisses)/float64(low), 100*float64(misses)/float64(branches))
	return nil
}
