package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// benchmark real_gcc, 4-wide fetch, depth 8
	//
	// policy             IPC    wasted fetch    gate stalls
	// ungated           2.36          41.1%            0
	// est8 / gate 4     2.31          40.7%       129264
	// est4 / gate 2     2.06          36.5%      1024324
	// est2 / gate 1     1.68          16.3%      3335668
	// oracle / gate 1   2.36           3.4%      1858696
	//
	// Tighter gates save more wrong-path work but stall correct-path fetch;
	// the oracle shows that a perfect estimator would cut nearly all waste
	// for free.
}
