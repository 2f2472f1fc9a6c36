package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"branchconf/perfbench/internal/bench"
)

var reportArgs = []string{"-branches", strconv.Itoa(bench.ReportBranches)}

// newDir returns a fresh, empty directory under the run's scratch space.
func (e *env) newDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix)
}

// opSeries collects a one-shot workload's timed ops and checks them
// against its reference: same report bytes, same build counts, no
// verify failures.
type opSeries struct {
	e         *env
	refDigest string
	refBuilds map[string]uint64
	walls     []float64
	cpu       []float64
	rss       []float64
	mismatch  int
}

// setRef records a set-up op's digest as the reference, which every
// set-up repetition must reproduce.
func (s *opSeries) setRef(r *opResult) {
	if s.refDigest != "" && r.digest != s.refDigest {
		s.e.problem("set-up ops disagree: report digest %s, then %s", s.refDigest, r.digest)
	}
	s.refDigest = r.digest
}

func (s *opSeries) add(r *opResult) {
	s.walls = append(s.walls, r.wall)
	s.cpu = append(s.cpu, r.cpu)
	s.rss = append(s.rss, r.rssMB)
	if r.digest != s.refDigest {
		s.e.problem("op %d: report digest %s differs from the reference %s", len(s.walls), r.digest, s.refDigest)
	}
	if vf := r.stats.verifyFails(); vf != 0 {
		s.e.problem("op %d: %d artifact verify failures", len(s.walls), vf)
	}
	builds := r.stats.builds()
	if s.refBuilds == nil {
		s.refBuilds = builds
		return
	}
	for tier, n := range builds {
		if n != s.refBuilds[tier] {
			s.mismatch++
			s.e.flag("op %d: %s built %d, the first op built %d", len(s.walls), tier, n, s.refBuilds[tier])
		}
	}
}

// report records the series' end-to-end metrics and detail. A series
// without a single successful op has no median to report: the run fails.
func (s *opSeries) report() {
	e := s.e
	e.detail["fail_frac"] = float64(e.failed) / float64(max(e.attempted, 1))
	if len(s.walls) == 0 {
		e.problem("no timed op succeeded: %d attempted, %d failed", e.attempted, e.failed)
		return
	}
	wall := bench.Summarize(s.walls, 90, 99)
	e.metric("wall_s", wall.Median)
	e.metric("peak_rss_mb", bench.Median(s.rss))
	e.detail["wall_s"] = wall
	e.detail["wall_s_samples"] = s.walls
	e.detail["cpu_s"] = bench.Summarize(s.cpu)
	e.detail["peak_rss_mb"] = bench.Summarize(s.rss)
	e.detail["digest"] = s.refDigest
	e.detail["builds"] = s.refBuilds
	e.detail["build_mismatches"] = s.mismatch
}

// setup times fn setupReps times and records the median as setup_s.
func (e *env) setup(fn func(rep int) error) error {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	e.metric("setup_s", bench.Median(times))
	e.detail["setup_s"] = bench.Summarize(times)
	return nil
}

// measure runs op until --seconds have passed (and at least minOps
// times), counting attempts and failures.
func (e *env) measure(op func() error) {
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for n := 0; e.ctx.Err() == nil && (n < minOps || time.Now().Before(deadline)); n++ {
		if e.overBudget() {
			e.flag("stopped after %d ops: the invocation's time limit is near", n)
			return
		}
		e.attempted++
		if err := op(); err != nil {
			e.failed++
			e.flag("op %d failed: %v", n+1, err)
		}
	}
}

// runReportCold: the full default report in a fresh process publishing
// into an empty artifact store. Set-up is the reference op that pins the
// report digest (and warms the page cache for the binary).
func runReportCold(e *env) error {
	s := &opSeries{e: e}
	err := e.setup(func(int) error {
		dir, err := e.newDir("cold-ref-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := e.oneShot(append(reportArgs, "-artifact-dir", dir)...)
		if err != nil {
			return err
		}
		s.setRef(r)
		return nil
	})
	if err != nil {
		return err
	}
	e.measure(func() error {
		dir, err := e.newDir("cold-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := e.oneShot(append(reportArgs, "-artifact-dir", dir)...)
		if err != nil {
			return err
		}
		s.add(r)
		return nil
	})
	s.report()
	return nil
}
