package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// misprediction % per benchmark (2^12-entry components)
	// benchmark     bimodal   gshare tournament  conf-hybrid
	// groff          20.75%    5.69%      4.49%        4.73%
	// gs             16.55%    6.79%      6.25%        6.01%
	// jpeg_play      20.29%    3.09%      3.05%        2.98%
	// mpeg_play      22.88%    5.67%      4.74%        4.94%
	// nroff          21.07%    9.27%      8.60%        7.97%
	// real_gcc       25.78%   16.60%     15.94%       15.70%
	// sdet           24.64%   11.02%     11.18%       10.39%
	// verilog        20.61%   10.03%      9.41%        8.66%
	// video_play     22.52%    3.66%      3.21%        3.28%
	//
	// composite: tournament 7.43%, confidence-selected 7.18%
	// The confidence-based selector is competitive with (here slightly
	// better than) the ad hoc chooser — the paper's §6 conjecture.
}
