package main

import "os"

func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// big predictor (gshare-64K), strict >55% threshold:
	// real_gcc   thr 0.55  set  0  base 8.880%  reversed 8.880%  delta +0.0000%  (0 reversals, 0 fixed)
	//
	// small predictor (gshare-4K), small confidence table:
	// real_gcc   thr 0.55  set  0  base 16.517%  reversed 16.517%  delta +0.0000%  (0 reversals, 0 fixed)
	// sdet       thr 0.55  set  0  base 10.940%  reversed 10.940%  delta +0.0000%  (0 reversals, 0 fixed)
	// groff      thr 0.55  set  0  base 5.659%  reversed 5.659%  delta +0.0000%  (0 reversals, 0 fixed)
	//
	// static BTFN predictor + dynamic reverse bits (S-1 style):
	// real_gcc   thr 0.50  set  1  base 56.391%  reversed 26.421%  delta -29.9702%  (282113 reversals, 215982 fixed)
	// groff      thr 0.50  set  2  base 42.716%  reversed 26.259%  delta -16.4568%  (221596 reversals, 151940 fixed)
	// jpeg_play  thr 0.50  set  3  base 44.192%  reversed 24.350%  delta -19.8424%  (293508 reversals, 196360 fixed)
	//
	// A negative delta means the reverser removed mispredictions; an empty
	// set reproduces the paper's caveat that no bucket exceeds 50% for the
	// well-tuned large predictor, while the static-base configuration shows
	// where reversal pays.
}
