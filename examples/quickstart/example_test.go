package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// benchmark       groff
	// branches        500000
	// mispredictions  19320 (3.86%)
	// low-confidence  26.2% of branches
	// coverage        87.1% of mispredictions land in the low set
	// enrichment      low set misprediction rate 12.9% vs 3.86% overall
}
