package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// round-robin        useful   9781321  wasted   806324  efficiency 92.38%  (skips 0)
	// confidence-gated   useful   5978465  wasted   368813  efficiency 94.19%  (skips 2622097)
	//
	// Gating steers fetch slots away from threads about to mispredict,
	// recovering part of the bandwidth the baseline burns on wrong paths.
}
