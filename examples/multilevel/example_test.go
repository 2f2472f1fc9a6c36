package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// benchmark sdet: 500000 branches, 6.25% mispredicted
	//
	// level                        share-branch  share-miss  miss-rate   suggested policy
	// 0: just mispredicted                 9.8%      50.6%    32.27%   fork both paths
	// 1: counts 1-7                       20.1%      35.2%    10.96%   throttle fetch
	// 2: counts 8-15                      10.0%       4.9%     3.08%   speculate
	// 3: saturated (zero bucket)          60.1%       9.3%     0.96%   speculate freely
	//
	// The graded signal separates a 7x-enriched fork class from a huge
	// nearly-miss-free class, with two intermediate throttling grades.
}
