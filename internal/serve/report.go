package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"branchconf/internal/exp"
)

// BuildOptions controls report execution outside the request itself.
type BuildOptions struct {
	// Parallel bounds concurrent experiments (<=1 = serial). The
	// per-benchmark simulation units below them are bounded separately by
	// sim.SetParallelism, which callers configure once per process.
	Parallel int
	// Progress, when non-nil, is called per completed experiment, one
	// call at a time, so it needs no lock of its own.
	Progress func(id string, elapsed float64)
	// Output, when non-nil, is called with each experiment's output as it
	// completes, from the worker running it; an error fails the build as
	// the experiment's own would.
	Output func(*exp.Output) error
	// Now is stubbed in tests for stable timing output (nil = time.Now).
	Now func() time.Time
}

// SelectExperiments applies the standard selection rules: registry order,
// the ablation skip, the id filter, and the opt-in gate (opt-in
// experiments run only when the filter names them explicitly).
func SelectExperiments(filter map[string]bool, skipAblations bool) ([]exp.Experiment, error) {
	var selected []exp.Experiment
	for _, e := range exp.All() {
		if skipAblations && strings.HasPrefix(e.ID, "ablation-") {
			continue
		}
		if filter != nil && !filter[e.ID] {
			continue
		}
		if e.OptIn && (filter == nil || !filter[e.ID]) {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments matched the filter")
	}
	return selected, nil
}

// BuildReport runs the selected experiments against the session and
// renders the consolidated markdown report. Experiments execute on a
// bounded worker pool claiming work in registration order; sections are
// assembled in registration order regardless of completion order, so the
// report bytes do not depend on the parallelism level. Both the one-shot
// CLI and the daemon render through this function — and the merge of
// shard partials renders through the same renderer — which is what makes
// daemon-served and shard-merged reports byte-identical to the one-shot
// CLI's output for the same request.
func BuildReport(session *exp.Session, req ReportRequest, opts BuildOptions) ([]byte, error) {
	filter, _, err := req.Validate()
	if err != nil {
		return nil, err
	}
	selected, err := SelectExperiments(filter, req.SkipAblations)
	if err != nil {
		return nil, err
	}
	indices := make([]int, len(selected))
	for i := range indices {
		indices[i] = i
	}
	results := runSelected(session, selected, indices, opts)
	return renderReport(req, selected, results)
}

// sectionResult is one experiment's outcome within a report build, indexed
// like the selection it came from.
type sectionResult struct {
	out     *exp.Output
	err     error
	elapsed float64
}

// runSelected executes the experiments at the given selection indices on a
// bounded worker pool claiming work in selection (= registration) order,
// returning a results slice indexed like selected (entries outside indices
// stay zero). The workers serialize their opts.Progress calls. The shard
// fan-out path runs strided subsets through the same runner the full
// build uses.
func runSelected(session *exp.Session, selected []exp.Experiment, indices []int, opts BuildOptions) []sectionResult {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(indices) {
		workers = len(indices)
	}
	results := make([]sectionResult, len(selected))
	work := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				e := selected[idx]
				start := now()
				var o *exp.Output
				var err error
				// Label the experiment's goroutine (and, via propagation,
				// the simulation units it schedules) for CPU profiles.
				pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
					o, err = e.Run(session)
				})
				if err == nil && opts.Output != nil {
					err = opts.Output(o)
				}
				elapsed := now().Sub(start).Seconds()
				results[idx] = sectionResult{out: o, err: err, elapsed: elapsed}
				if opts.Progress != nil {
					progressMu.Lock()
					opts.Progress(e.ID, elapsed)
					progressMu.Unlock()
				}
			}
		}()
	}
	for _, idx := range indices {
		work <- idx
	}
	close(work)
	wg.Wait()
	return results
}

// renderReport assembles the final markdown from per-experiment results in
// registration order — the single renderer behind one-shot, daemon, and
// shard-merged reports.
func renderReport(req ReportRequest, selected []exp.Experiment, results []sectionResult) ([]byte, error) {
	var w bytes.Buffer
	fmt.Fprintf(&w, "# Paper reproduction report\n\n")
	fmt.Fprintf(&w, "Per-benchmark branch budget: %s\n\n", budgetString(req.Branches))
	for i, e := range selected {
		r := results[i]
		if r.err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, r.err)
		}
		fmt.Fprintf(&w, "## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(&w, "Paper: %s\n\n", e.Paper)
		fmt.Fprintf(&w, "```\n%s```\n", ensureNewline(r.out.Text))
		if len(r.out.Scalars) > 0 {
			fmt.Fprintf(&w, "\n| metric | value |\n|---|---|\n")
			for _, k := range sortedKeys(r.out.Scalars) {
				fmt.Fprintf(&w, "| %s | %.3f |\n", k, r.out.Scalars[k])
			}
		}
		if req.NoTimings {
			fmt.Fprintf(&w, "\n")
		} else {
			fmt.Fprintf(&w, "\n_(ran in %.1fs)_\n\n", r.elapsed)
		}
	}
	return w.Bytes(), nil
}

func budgetString(n uint64) string {
	if n == 0 {
		return "benchmark default (1,000,000)"
	}
	return fmt.Sprintf("%d", n)
}

func ensureNewline(s string) string {
	if s == "" || strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}

// sortedKeys returns the map's keys sorted.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
