package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"branchconf/perfbench/internal/bench"
)

// reconcileMargin is the share of a traced op's wall time its spans may
// leave uncovered (process start, runtime init, exit). A larger gap fails
// the run: the spans would miss part of the op.
const reconcileMargin = 0.05

var streamArgs = []string{"-branches", strconv.Itoa(bench.StreamBranches), "-only", "longhorizon"}

// traced is one traced-run invocation's accumulating state.
type traced struct {
	e      *env
	values map[string]float64
	ops    []bench.TracedOp
}

// layers runs one layers op for workload wl in a fresh process and returns
// its output and wall time (spawn to reap).
func (t *traced) layers(wl string, args ...string) (*bench.LayerOutput, float64, error) {
	e := t.e
	e.seq++
	outPath := filepath.Join(e.work, fmt.Sprintf("layers%d.out", e.seq))
	errPath := filepath.Join(e.work, fmt.Sprintf("layers%d.err", e.seq))
	defer os.Remove(outPath)
	defer os.Remove(errPath)
	e.attempted++
	offset := time.Since(e.start).Seconds()
	res, err := e.spawn(e.layers, args, outPath, errPath)
	if err != nil {
		e.failed++
		return nil, 0, err
	}
	var lo bench.LayerOutput
	if err := json.Unmarshal(res.report, &lo); err != nil {
		return nil, 0, fmt.Errorf("layers %s: %w", args[0], err)
	}
	if len(lo.Spans) > 0 {
		t.ops = append(t.ops, bench.TracedOp{Name: wl, Offset: offset, Spans: lo.Spans})
	}
	return &lo, res.wall, nil
}

// untraced runs one untraced one-shot op, counting it as attempted.
func (t *traced) untraced(args ...string) (*opResult, error) {
	t.e.attempted++
	r, err := t.e.oneShot(args...)
	if err != nil {
		t.e.failed++
	}
	return r, err
}

// reconcile reports the time a traced op's spans leave uncovered, failing
// the run on a gap beyond the margin, and the tracing overhead: the traced
// op's time minus the untraced op's at nproc. The untraced op at
// -parallel 1 gives the 1-vs-nproc point.
func (t *traced) reconcile(wl string, lo *bench.LayerOutput, wall, tracedOp, untracedWall, parallel1Wall float64) {
	covered := bench.Covered(lo.Spans)
	gap := wall - covered
	t.values["spans.gap_s."+wl] = gap
	t.values["spans.overhead_s."+wl] = tracedOp - untracedWall
	t.values["untraced.wall_s."+wl] = untracedWall
	t.values["untraced.parallel1_s."+wl] = parallel1Wall
	if math.Abs(gap) > reconcileMargin*wall {
		t.e.problem("%s: spans cover %.3fs of the traced op's %.3fs; the %.3fs gap exceeds the %.0f%% margin", wl, covered, wall, gap, 100*reconcileMargin)
	}
	t.e.detail["self_s."+wl] = bench.SelfTimes(lo.Spans)
}

// spanSum totals the durations of spans whose name starts with prefix.
func spanSum(spans []bench.Span, prefix string) float64 {
	total := 0.0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			total += s.Dur()
		}
	}
	return total
}

// runTraced is the traced run. It covers every workload whichever one it
// is invoked for, so every traced run measures every per-layer metric:
// for each workload an untraced op at nproc and at -parallel 1, then one
// traced op in its own fresh process; then the layer probes.
func runTraced(e *env) error {
	t := &traced{e: e, values: map[string]float64{}}

	// report-cold, then report-warm against the store the traced cold op filled.
	coldRef, err := t.coldOp()
	if err != nil {
		return err
	}
	coldP1, err := t.coldOp("-parallel", "1")
	if err != nil {
		return err
	}
	if coldP1.digest != coldRef.digest {
		e.problem("report-cold at -parallel 1: report digest %s differs from nproc's %s", coldP1.digest, coldRef.digest)
	}
	store, err := e.newDir("traced-store-")
	if err != nil {
		return err
	}
	lo, wall, err := t.layers("report-cold", "report", "-dir", store)
	if err != nil {
		return err
	}
	if lo.Digest != coldRef.digest {
		e.problem("traced report-cold: report digest %s differs from paperrepro's %s", lo.Digest, coldRef.digest)
	}
	t.reportValues(lo, true)
	t.reconcile("report-cold", lo, wall, wall, coldRef.wall, coldP1.wall)

	warmRef, err := t.untraced(append(reportArgs, "-artifact-dir", store)...)
	if err != nil {
		return err
	}
	warmP1, err := t.untraced(append(reportArgs, "-artifact-dir", store, "-parallel", "1")...)
	if err != nil {
		return err
	}
	lo, wall, err = t.layers("report-warm", "report", "-dir", store)
	if err != nil {
		return err
	}
	for _, r := range []*opResult{warmRef, warmP1} {
		if r.digest != coldRef.digest {
			e.problem("untraced report-warm: report digest %s differs from report-cold's %s", r.digest, coldRef.digest)
		}
	}
	if lo.Digest != coldRef.digest {
		e.problem("traced report-warm: report digest %s differs from report-cold's %s", lo.Digest, coldRef.digest)
	}
	t.reportValues(lo, false)
	t.reconcile("report-warm", lo, wall, wall, warmRef.wall, warmP1.wall)
	os.RemoveAll(store)

	if err := t.stream(); err != nil {
		return err
	}
	if err := t.serve(); err != nil {
		return err
	}

	probes, _, err := t.layers("probes", "probes")
	if err != nil {
		return err
	}
	for k, v := range probes.Values {
		t.values[k] = v
	}
	t.values["fail_frac"] = float64(e.failed) / float64(max(e.attempted, 1))

	for k, v := range t.values {
		e.metric(k, v)
	}
	return t.writeTrace()
}

// coldOp runs one untraced report-cold op into a fresh store.
func (t *traced) coldOp(extra ...string) (*opResult, error) {
	dir, err := t.e.newDir("traced-cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return t.untraced(append(append(reportArgs, "-artifact-dir", dir), extra...)...)
}

// reportValues maps a traced report op's spans and counters onto
// per-layer metrics: compute and write-path metrics from the cold op,
// open and read-path metrics from the warm op.
func (t *traced) reportValues(lo *bench.LayerOutput, cold bool) {
	v := t.values
	if cold {
		v["workload.materialize_s"] = spanSum(lo.Spans, "workload.Materialize ")
		for _, s := range lo.Spans {
			if id, ok := strings.CutPrefix(s.Name, "exp.Run "); ok {
				v["exp.run_s."+id] = s.Dur()
			}
		}
		for _, k := range []string{
			"workload.trace_builds", "sim.annotate_builds", "sim.bucket_builds", "exp.curve_builds",
			"exp.model_builds", "exp.pass_builds", "artifact.write_s", "artifact.write_mb", "artifact.disk_misses",
			"heap.peak_mb.annotate", "heap.peak_mb.replay", "heap.peak_mb.tally",
		} {
			v[k] = lo.Values[k]
		}
		for k, x := range lo.Values {
			if strings.HasPrefix(k, "memo.hit_ratio.") {
				v[k] = x
			}
		}
		v["artifact.verify_fails"] = lo.Values["artifact.verify_fails"]
		return
	}
	v["artifact.open_s"] = spanSum(lo.Spans, "artifact.OpenStore")
	for _, k := range []string{"artifact.read_s", "artifact.read_mb", "artifact.disk_hits"} {
		v[k] = lo.Values[k]
	}
	v["artifact.verify_fails"] += lo.Values["artifact.verify_fails"]
	if v["artifact.verify_fails"] != 0 {
		t.e.problem("traced report ops counted %v artifact verify failures", v["artifact.verify_fails"])
	}
}

// stream runs the stream-long comparison ops and the traced op.
func (t *traced) stream() error {
	ref, err := t.untraced(streamArgs...)
	if err != nil {
		return err
	}
	p1, err := t.untraced(append(streamArgs, "-parallel", "1")...)
	if err != nil {
		return err
	}
	if p1.digest != ref.digest {
		t.e.problem("stream-long at -parallel 1: report digest %s differs from nproc's %s", p1.digest, ref.digest)
	}
	lo, wall, err := t.layers("stream-long", "stream")
	if err != nil {
		return err
	}
	if lo.Digest != ref.digest {
		t.e.problem("traced stream-long: report digest %s differs from paperrepro's %s", lo.Digest, ref.digest)
	}
	v := t.values
	v["trace.segment_s"] = spanSum(lo.Spans, "trace.Segmenter.Next")
	v["sim.annotate_s"] = spanSum(lo.Spans, "sim.AnnotateBuffer")
	v["core.fill_s"] = spanSum(lo.Spans, "core.FillBucketLaneResume")
	v["exp.run_s.longhorizon"] = spanSum(lo.Spans, "exp.Run longhorizon")
	v["sim.stream_segments"] = lo.Values["sim.stream_segments"]
	v["sim.stream_inflight_mb"] = lo.Values["sim.stream_inflight_mb"]
	t.reconcile("stream-long", lo, wall, wall, ref.wall, p1.wall)
	return nil
}

// serve runs the serve-figures comparison daemons (nproc and -parallel 1)
// and the traced in-process server.
func (t *traced) serve() error {
	e := t.e
	var lat [2]float64
	var ref map[string][]byte
	for i, extra := range [][]string{nil, {"-parallel", "1", "-max-inflight", "1"}} {
		e.attempted++
		d, err := e.startDaemon(extra...)
		if err != nil {
			e.failed++
			return err
		}
		bodies, err := d.warm()
		if err != nil {
			d.kill()
			e.failed++
			return err
		}
		var lats []float64
		for r := 0; r < bench.TracedRounds; r++ {
			for _, id := range bench.FigureOrder(e.seed) {
				b, l, err := d.request(id)
				if err != nil {
					d.kill()
					e.failed++
					return err
				}
				if string(b) != string(bodies[id]) {
					e.problem("untraced daemon: %s response differs from its warm-up response", id)
				}
				lats = append(lats, l)
			}
		}
		if _, err := d.stop(); err != nil {
			return err
		}
		if ref == nil {
			ref = bodies
		}
		for id, b := range bodies {
			if string(b) != string(ref[id]) {
				e.problem("daemon at -parallel 1: %s differs from nproc's", id)
			}
		}
		lat[i] = bench.Median(lats)
	}
	lo, wall, err := t.layers("serve-figures", "serve", "-seed", strconv.FormatInt(e.seed, 10))
	if err != nil {
		return err
	}
	for id, b := range ref {
		if d := bench.Digest(b); lo.Digests[id] != d {
			e.problem("traced serve-figures: %s digest %s differs from the daemon's %s", id, lo.Digests[id], d)
		}
	}
	for _, k := range []string{"serve.handler_ms_p50", "serve.transport_ms_p50", "serve.requests_failed", "serve.rejected", "serve.report_cache_hits"} {
		t.values[k] = lo.Values[k]
	}
	if lo.Values["serve.report_cache_hits"] != 0 {
		e.problem("traced serve-figures: %v timing-bearing requests hit the report cache", lo.Values["serve.report_cache_hits"])
	}
	// A serve op here is one request: the overhead compares the traced
	// server's median request latency with the untraced daemon's, both
	// taken one request at a time over the same rounds.
	t.reconcile("serve-figures", lo, wall, lo.Values["serve.client_ms_p50"]/1000, lat[0], lat[1])
	return nil
}

// writeTrace writes every traced op's spans as one Chrome trace-event
// file under .bench_build/traces.
func (t *traced) writeTrace() error {
	dir := filepath.Join(filepath.Dir(t.e.work), "traces")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.e.detail["workload"], t.e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t.e.detail["chrome_trace"] = filepath.Join(".bench_build", "traces", filepath.Base(path))
	return bench.WriteChromeTrace(f, t.ops)
}
