// Command layers is the in-process half of perfbench's traced run. Each
// invocation is one fresh process that makes one op through the layers'
// public functions, with a span around every call, or runs the layer
// probes, and prints one JSON object on standard output:
//
//	layers report -dir STORE
//	layers stream
//	layers serve -seed 1
//	layers probes
//
// Budgets are bench.ReportBranches and bench.StreamBranches, the ones the
// harness gives paperrepro. The report op is report-cold when STORE is
// empty and report-warm when a cold op has filled it. It opens the
// artifact store through a timing filesystem, materializes the nine suite
// traces, then builds the -no-timings report through serve.BuildReport one
// experiment at a time in registry order, so its digest can be checked
// against the CLI's. The stream op walks real_gcc through the segmenter,
// annotation and the fill kernels segment by segment, then runs
// longhorizon itself. The serve op drives an in-process server whose
// handler is wrapped in a span. Spans stay in memory and are printed at
// exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"branchconf/perfbench/internal/bench"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: layers report|stream|serve|probes [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("layers "+os.Args[1], flag.ExitOnError)
	var (
		dir  = fs.String("dir", "", "artifact store directory (report)")
		seed = fs.Int64("seed", 1, "request-order seed (serve)")
	)
	fs.Parse(os.Args[2:])
	var (
		out *bench.LayerOutput
		err error
	)
	switch os.Args[1] {
	case "report":
		out, err = tracedReport(*dir)
	case "stream":
		out, err = tracedStream()
	case "serve":
		out, err = tracedServe(*seed)
	case "probes":
		out, err = runProbes()
	default:
		err = fmt.Errorf("unknown mode %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
