// Command perfbench runs one benchmark invocation against the paperrepro
// binary built from the same checkout, and prints its result as the last
// line of standard output.
//
// Usage (normally through perfbench/run.py, which builds the binaries):
//
//	perfbench -bin PAPERREPRO -layers LAYERS -root CHECKOUT \
//	          --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times, then runs timed
// ops for --seconds and reports the end-to-end metrics. Every op is a
// fresh paperrepro process (or, for serve-figures, a request to a fresh
// paperrepro serve child), so no process-wide cache can carry over from one
// op to the next. With --trace 1 it runs the traced run instead: one traced
// op for each of report-cold, report-warm, stream-long and serve-figures
// through the layers' public functions, plus untraced comparison ops and
// the layer probes, and reports the per-layer metrics.
//
// Every op's report is hashed and checked; a mismatch fails the run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"branchconf/perfbench/internal/bench"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 3
	// minOps is the fewest timed ops a one-shot workload runs, even when
	// they overrun --seconds.
	minOps = 5
	// runLimit bounds a whole invocation.
	runLimit = 170 * time.Second
)

// workloads are the timed workloads. The traced run covers report-warm and
// stream-long as well, whichever of these it is invoked for.
var workloads = map[string]func(*env) error{
	"report-cold":   runReportCold,
	"serve-figures": runServeFigures,
}

// env is one invocation's state: where the binaries and scratch space
// are, the measured window, and what the run has found so far.
type env struct {
	ctx               context.Context // canceled on interrupt: kills every child
	bin, layers, work string
	seed              int64
	seconds           float64
	nproc             int
	start             time.Time
	seq               int

	attempted, failed int
	problems          []string           // failed output checks: each makes the run incorrect
	flags             []string           // anomalies worth a look that do not fail the run
	values            map[string]float64 // measured metrics; their units come from BENCHMARK.json
	detail            map[string]any
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: report-cold or serve-figures")
		seed     = flag.Int64("seed", 1, "seed: sets the order of serve-figures requests")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer metrics) instead of the timed run")
		bin      = flag.String("bin", "", "paperrepro binary")
		layers   = flag.String("layers", "", "perfbench layers binary (needed with --trace 1)")
		root     = flag.String("root", ".", "checkout root; scratch files go under its .bench_build")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *bin == "" || (*trace == 1 && *layers == "") || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (report-cold or serve-figures), --seconds > 0, -bin, and -layers with --trace 1\n")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An interrupt cancels ctx, which kills every child and stops the
	// measuring loops; main then removes the scratch space and exits
	// without a result.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		time.Sleep(10 * time.Second)
		os.Exit(1) // main did not wind down
	}()
	e := &env{
		ctx: ctx, bin: *bin, layers: *layers, work: work, seed: *seed, seconds: *seconds,
		nproc: runtime.NumCPU(), start: time.Now(),
		values: map[string]float64{}, detail: map[string]any{},
	}
	e.detail["workload"] = *workload
	e.detail["trace"] = *trace
	e.detail["provenance"] = provenance(*root, *seed)
	if *trace == 1 {
		err = runTraced(e)
	} else {
		err = run(e)
	}
	if ctx.Err() != nil {
		os.RemoveAll(work)
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(1)
	}
	if err != nil {
		e.problems = append(e.problems, err.Error())
	}
	metrics := checkListed(e, *root, *trace == 1)
	e.detail["problems"] = e.problems
	e.detail["flags"] = e.flags
	for _, p := range e.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	for _, f := range e.flags {
		fmt.Fprintln(os.Stderr, "perfbench: flag:", f)
	}
	res := bench.Result{Correct: len(e.problems) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	detail, _ := json.Marshal(map[string]any{"detail": e.detail})
	fmt.Println(string(detail))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// checkListed holds the run's values to BENCHMARK.json: every listed
// metric of the run's kind must be measured, and is reported in the unit
// the file lists. Values it does not list move to the detail record.
func checkListed(e *env, root string, perLayer bool) map[string]bench.Metric {
	out := map[string]bench.Metric{}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		e.problem("BENCHMARK.json: %v", err)
		return out
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		e.problem("BENCHMARK.json: %v", err)
		return out
	}
	listed := spec.EndToEnd
	if perLayer {
		listed = spec.PerLayer
	}
	unlisted := maps.Clone(e.values)
	for _, m := range listed {
		if v, ok := e.values[m.Name]; ok {
			out[m.Name] = bench.Metric{Value: v, Unit: m.Unit}
		} else {
			e.problem("metric %s was not measured", m.Name)
		}
		delete(unlisted, m.Name)
	}
	if len(unlisted) > 0 {
		e.detail["unlisted_values"] = unlisted
	}
	return out
}

// metric records one measured value.
func (e *env) metric(name string, v float64) { e.values[name] = v }

// problem records a failed output check.
func (e *env) problem(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// flag records an anomaly that does not fail the run.
func (e *env) flag(format string, args ...any) {
	e.flags = append(e.flags, fmt.Sprintf(format, args...))
}

// overBudget reports whether the invocation is close to its time limit.
func (e *env) overBudget() bool { return time.Since(e.start) > runLimit-30*time.Second }

// provenance records what the numbers were measured on and with.
func provenance(root string, seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(root),
		"seed":       seed,
		"budgets": map[string]uint64{
			"report_branches": bench.ReportBranches,
			"stream_branches": bench.StreamBranches,
		},
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of its Go sources and module file.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "tree-sha256:" + sourceDigest(root)
}
