package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// benchmark real_gcc, penalty 10 cycles, fork cost 1 cycle(s), 2 thread(s)
	//
	// threshold | fork (frac of branches) | coverage (frac of misses) | penalty savings
	//         1 |                   10.0% |                     36.5% |           25.3%
	//         4 |                   19.9% |                     52.5% |           30.0%
	//         8 |                   25.8% |                     54.5% |           25.5%
	//        16 |                   32.2% |                     54.4% |           18.2%
	//
	// Low thresholds fork rarely and cover only the hottest mispredictions;
	// threshold 16 (the paper's 20 percent-of-branches point) covers most of them.
}
