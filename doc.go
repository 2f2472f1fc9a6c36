// Package branchconf is a from-scratch Go reproduction of "Assigning
// Confidence to Conditional Branch Predictions" (Jacobsen, Rotenberg &
// Smith, MICRO-29, 1996): hardware mechanisms that split conditional
// branch predictions into high- and low-confidence sets so that most
// mispredictions concentrate in a small low-confidence set.
//
// The root package carries the module documentation and the per-component
// microbenchmarks (bench_test.go). The implementation lives under
// internal/:
//
//   - internal/core — the confidence mechanisms (one-level and two-level
//     CIR tables, counter tables, reduction functions): the paper's
//     contribution.
//   - internal/predictor — the underlying branch predictors (gshare et
//     al.).
//   - internal/workload — the synthetic benchmark suite standing in for
//     the IBS traces, calibrated to the paper's misprediction anchors.
//   - internal/trace, internal/bitvec, internal/xrand — substrates.
//   - internal/analysis, internal/sim, internal/exp — statistics, drivers
//     and the per-figure experiment registry.
//   - internal/apps — the four §1 applications (dual-path execution, SMT
//     fetch gating, hybrid selection, prediction reversal).
//
// Entry points: cmd/paperrepro (run any subset of the experiment registry,
// or all of it, into one report; -h lists the registry), cmd/tracegen
// (write traces), cmd/loadgen (drive the resident daemon), and the runnable
// examples under examples/.
package branchconf
