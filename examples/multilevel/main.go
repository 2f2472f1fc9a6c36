// Multi-level confidence example: the generalisation §1 of the paper names
// but leaves unexplored — instead of one high/low bit, grade predictions
// into confidence classes and let the machine react proportionally (fork
// at level 0, throttle at level 1, speculate freely above).
//
// Run with:
//
//	go run ./examples/multilevel
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

// run splits sdet's branches into four confidence classes and writes
// the table to w.
func run(w io.Writer) error {
	spec, err := workload.ByName("sdet")
	if err != nil {
		return err
	}
	src, err := spec.FiniteSource(500_000)
	if err != nil {
		return err
	}
	pred := predictor.Gshare64K()
	// Four classes over the resetting-counter table: counts {0}, 1-7,
	// 8-15, and the saturated 16.
	est := core.PaperMultiEstimator()

	type tally struct{ branches, misses uint64 }
	levels := make([]tally, est.Levels())
	var total, totalMiss uint64
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		level := est.Level(r)
		incorrect := pred.Predict(r) != r.Taken
		pred.Update(r)
		est.Update(r, incorrect)
		levels[level].branches++
		total++
		if incorrect {
			levels[level].misses++
			totalMiss++
		}
	}

	desc := []string{
		"0: just mispredicted",
		"1: counts 1-7",
		"2: counts 8-15",
		"3: saturated (zero bucket)",
	}
	policy := []string{
		"fork both paths",
		"throttle fetch",
		"speculate",
		"speculate freely",
	}
	fmt.Fprintf(w, "benchmark %s: %d branches, %.2f%% mispredicted\n\n", spec.Name,
		total, 100*float64(totalMiss)/float64(total))
	fmt.Fprintln(w, "level                        "+"share-branch  share-miss  miss-rate   suggested policy")
	for i, l := range levels {
		fmt.Fprintf(w, "%-28s %11.1f%% %9.1f%% %8.2f%%   %s\n", desc[i],
			100*float64(l.branches)/float64(total),
			100*float64(l.misses)/float64(totalMiss),
			100*float64(l.misses)/float64(l.branches),
			policy[i])
	}
	fmt.Fprintln(w, "\nThe graded signal separates a 7x-enriched fork class from a huge")
	fmt.Fprintln(w, "nearly-miss-free class, with two intermediate throttling grades.")
	return nil
}
