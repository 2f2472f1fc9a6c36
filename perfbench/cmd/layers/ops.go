package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/exp"
	"branchconf/internal/heapwatch"
	"branchconf/internal/predictor"
	"branchconf/internal/serve"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
	"branchconf/perfbench/internal/bench"
)

// cacheBytes is paperrepro's default resident bound for every engine tier
// (-annotate-cache-mb 256), and storeBudget its -artifact-disk-mb default.
const (
	cacheBytes  = 256 << 20
	storeBudget = 1024 << 20
)

// setBounds applies the engine bounds paperrepro sets from its defaults.
func setBounds() {
	sim.SetAnnotatedCacheBound(cacheBytes)
	sim.SetTallyCacheDefaultBound(cacheBytes)
	exp.SetCurveCacheDefaultBound(cacheBytes)
	exp.SetModelCacheDefaultBound(cacheBytes)
	sim.ResetStreamStats()
	heapwatch.Reset()
	heapwatch.Enable()
}

// tracedReport is report-cold or report-warm, by the state of dir, made
// call by call.
func tracedReport(dir string) (*bench.LayerOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	op := "report-cold"
	if len(entries) > 0 {
		op = "report-warm"
	}
	rec := bench.NewRecorder(op)
	tfs := &timingFS{inner: artifact.OSFS()}
	var store *artifact.Store
	err = rec.Do("artifact.OpenStore", "artifact", -1, func() error {
		var err error
		store, err = artifact.OpenStore(dir, artifact.Options{Budget: storeBudget, FS: tfs})
		return err
	})
	if err != nil {
		return nil, err
	}
	artifact.SetDefault(store)
	setBounds()
	const branches = bench.ReportBranches
	session := exp.NewSession(exp.Config{Branches: branches})
	for _, spec := range workload.Suite() {
		err := rec.Do("workload.Materialize "+spec.Name, "workload", -1, func() error {
			_, err := workload.Materialize(spec, branches)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	report, err := buildReport(rec, session, serve.ReportRequest{Branches: branches, NoTimings: true})
	if err != nil {
		return nil, err
	}
	err = rec.Do("artifact.Store.Close", "artifact", -1, func() error {
		store.Close()
		return store.Err()
	})
	if err != nil {
		return nil, err
	}
	hits, misses := session.Stats()
	values := counterValues(serve.SnapshotCacheStats(hits, misses, true))
	for k, v := range tfs.values() {
		values[k] = v
	}
	return &bench.LayerOutput{Spans: rec.Spans(), Values: values, Digest: bench.Digest(report)}, nil
}

// buildReport renders req through serve.BuildReport, the renderer behind
// paperrepro, running one experiment at a time in registry order. Its span
// holds one child per experiment (exp.Run <id>), timed by BuildReport
// itself; what the children leave is rendering.
func buildReport(rec *bench.Recorder, session *exp.Session, req serve.ReportRequest) ([]byte, error) {
	id := rec.Begin("serve.BuildReport", "serve", -1)
	defer rec.End(id)
	return serve.BuildReport(session, req, serve.BuildOptions{
		Parallel: 1,
		Progress: func(expID string, elapsed float64) { rec.Ended("exp.Run "+expID, "exp", id, elapsed) },
	})
}

// memoTiers are the in-memory tiers whose hit ratios are reported.
var memoTiers = map[string]bool{
	"trace-memo": true, "annotated-stream": true, "bucket-stream": true,
	"model-stats": true, "curve": true, "session-pass": true,
}

// counterValues maps the program's own tier counters onto per-layer
// metrics. Builds are tier misses, the exact count; hit ratios include
// waits on another caller's in-flight build.
func counterValues(s serve.CacheStatsJSON) map[string]float64 {
	v := map[string]float64{}
	tiers := append([]serve.TierStatsJSON{s.SessionPass}, s.Tiers...)
	for _, t := range tiers {
		if memoTiers[t.Name] {
			ratio := 0.0
			if total := t.Hits + t.Misses; total > 0 {
				ratio = float64(t.Hits) / float64(total)
			}
			v["memo.hit_ratio."+t.Name] = ratio
		}
		switch t.Name {
		case "session-pass":
			v["exp.pass_builds"] = float64(t.Misses)
		case "trace-memo":
			v["workload.trace_builds"] = float64(t.Misses)
		case "annotated-stream":
			v["sim.annotate_builds"] = float64(t.Misses)
		case "bucket-stream":
			v["sim.bucket_builds"] = float64(t.Misses)
		case "model-stats":
			v["exp.model_builds"] = float64(t.Misses)
		case "curve":
			v["exp.curve_builds"] = float64(t.Misses)
		case "artifact-disk":
			v["artifact.disk_hits"] = float64(t.Hits)
			v["artifact.disk_misses"] = float64(t.Misses)
			v["artifact.verify_fails"] = float64(t.VerifyFails)
		case "stream-segment":
			v["sim.stream_segments"] = float64(t.Hits + t.Misses)
			v["sim.stream_inflight_mb"] = float64(t.ResidentBytes) / (1 << 20)
		}
	}
	for _, h := range s.HeapStages {
		v["heap.peak_mb."+h.Stage] = float64(h.PeakHeapBytes) / (1 << 20)
	}
	return v
}

// timingFS wraps the store's filesystem and totals the time and bytes of
// its reads and writes. Calls arrive from concurrent simulation units, so
// the totals are sums over goroutines, not spans on the op's timeline.
type timingFS struct {
	inner                 artifact.FS
	readNs, writeNs       atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func (t *timingFS) timeRead(start time.Time, n int) {
	t.readNs.Add(time.Since(start).Nanoseconds())
	t.readBytes.Add(int64(n))
}

func (t *timingFS) timeWrite(start time.Time, n int) {
	t.writeNs.Add(time.Since(start).Nanoseconds())
	t.writeBytes.Add(int64(n))
}

func (t *timingFS) values() map[string]float64 {
	return map[string]float64{
		"artifact.read_s":   float64(t.readNs.Load()) / 1e9,
		"artifact.write_s":  float64(t.writeNs.Load()) / 1e9,
		"artifact.read_mb":  float64(t.readBytes.Load()) / (1 << 20),
		"artifact.write_mb": float64(t.writeBytes.Load()) / (1 << 20),
	}
}

func (t *timingFS) MkdirAll(dir string, perm os.FileMode) error { return t.inner.MkdirAll(dir, perm) }
func (t *timingFS) ReadDir(dir string) ([]fs.DirEntry, error)   { return t.inner.ReadDir(dir) }

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.ReadFile(name)
	t.timeRead(start, len(b))
	return b, err
}

// Chtimes refreshes a record's recency on every hit: part of the read path.
func (t *timingFS) Chtimes(name string, atime, mtime time.Time) error {
	start := time.Now()
	err := t.inner.Chtimes(name, atime, mtime)
	t.timeRead(start, 0)
	return err
}

func (t *timingFS) CreateTemp(dir, pattern string) (artifact.File, error) {
	start := time.Now()
	f, err := t.inner.CreateTemp(dir, pattern)
	t.timeWrite(start, 0)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.timeWrite(start, 0)
	return err
}

func (t *timingFS) Remove(name string) error {
	start := time.Now()
	err := t.inner.Remove(name)
	t.timeWrite(start, 0)
	return err
}

type timingFile struct {
	artifact.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.timeWrite(start, n)
	return n, err
}

func (f *timingFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.fs.timeWrite(start, 0)
	return err
}

// streamMechs are longhorizon's three mechanisms.
func streamMechs() ([]string, []core.Resumable) {
	return []string{"onelevel-pc^bhr", "onelevel-1K", "resetting"}, []core.Resumable{
		core.PaperOneLevel(core.IndexPCxorBHR),
		core.NewOneLevel(core.OneLevelConfig{Scheme: core.IndexPCxorBHR, TableBits: 10}),
		core.PaperResetting(),
	}
}

// tracedStream walks real_gcc's full horizon through the streaming layers
// one segment at a time, then runs the longhorizon experiment itself (all
// three horizons) under the automatic segment size.
func tracedStream() (*bench.LayerOutput, error) {
	rec := bench.NewRecorder("stream-long")
	setBounds()
	const branches = bench.StreamBranches
	spec, err := workload.ByName("real_gcc")
	if err != nil {
		return nil, err
	}
	src, err := spec.FiniteSource(branches)
	if err != nil {
		return nil, err
	}
	seg := trace.NewSegmenter(src, serve.AutoSegmentBranches)
	pred := predictor.Gshare64K()
	labels, mechs := streamMechs()
	states := make([]core.FactorState, len(mechs))
	lanes := make([]*bitvec.Dense, len(mechs))
	counts := make([][]uint32, len(mechs))
	for i, m := range mechs {
		states[i] = m.NewFactorState()
		if w := m.BucketWidth(); w <= 16 {
			counts[i] = make([]uint32, 2<<w)
		}
	}
	var flat *trace.FlatView
	for {
		var buf *trace.ReplayBuffer
		err := rec.Do("trace.Segmenter.Next", "trace", -1, func() error {
			var err error
			buf, err = seg.Next()
			return err
		})
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec.Do("trace.FlattenInto", "trace", -1, func() error {
			flat = buf.FlattenInto(flat)
			return nil
		})
		var ann *sim.AnnotatedStream
		rec.Do("sim.AnnotateBuffer", "sim", -1, func() error {
			ann = sim.AnnotateBuffer(buf, pred)
			return nil
		})
		for i, m := range mechs {
			if lanes[i] == nil {
				lanes[i] = bitvec.NewDense(m.BucketWidth(), flat.Len())
			} else {
				lanes[i].Reset()
			}
			clear(counts[i])
			rec.Do("core.FillBucketLaneResume "+labels[i], "core", -1, func() error {
				m.FillBucketLaneResume(states[i], flat.Records(), ann.MissWords(), lanes[i], counts[i])
				return nil
			})
		}
		seg.Recycle(buf)
	}

	sim.ResetStreamStats()
	session := exp.NewSession(exp.Config{Branches: branches, SegmentBranches: serve.AutoSegmentBranches})
	report, err := buildReport(rec, session, serve.ReportRequest{Branches: branches, Only: []string{"longhorizon"}, NoTimings: true})
	if err != nil {
		return nil, err
	}
	hits, misses := session.Stats()
	return &bench.LayerOutput{Spans: rec.Spans(), Values: counterValues(serve.SnapshotCacheStats(hits, misses, false)), Digest: bench.Digest(report)}, nil
}

// tracedServe boots an in-process server whose handler is wrapped in a
// span, warms it with every figure, then sends bench.TracedRounds rounds of
// timing-bearing figure requests from one client. Each client call is a
// transport span whose child is the handler span.
func tracedServe(seed int64) (*bench.LayerOutput, error) {
	rec := bench.NewRecorder("serve-figures")
	parallel := runtime.NumCPU()
	setBounds()
	sim.SetParallelism(parallel)
	var (
		srv *serve.Server
		ln  net.Listener
		hs  *http.Server
	)
	err := rec.Do("serve.New", "serve", -1, func() error {
		srv = serve.New(serve.Config{
			Parallel: parallel, PassCacheBytes: cacheBytes, MaxInflight: parallel, MaxQueue: 64,
			QueueTimeout: 30 * time.Second, ReportCacheBytes: 64 << 20, HeapStats: true,
		})
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		return err
	})
	if err != nil {
		return nil, err
	}
	inner := srv.Handler()
	hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		if err != nil {
			parent = -1
		}
		id := rec.Begin("serve.Handler "+r.URL.Path, "serve", parent)
		inner.ServeHTTP(w, r)
		rec.End(id)
	})}
	go hs.Serve(ln)
	client := &http.Client{Timeout: 60 * time.Second}
	base := "http://" + ln.Addr().String()

	call := func(method, path string, body []byte) ([]byte, int, error) {
		id := rec.Begin("client "+method+" "+path, "transport", -1)
		defer rec.End(id)
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, id, err
		}
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(id))
		resp, err := client.Do(req)
		if err != nil {
			return nil, id, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, b)
		}
		return b, id, err
	}
	figure := func(id string) ([]byte, int, error) {
		body, _ := json.Marshal(map[string]any{"branches": bench.ReportBranches, "only": []string{id}})
		b, span, err := call(http.MethodPost, "/v1/report", body)
		return bench.StripTimings(b), span, err
	}

	digests := map[string]string{}
	for _, id := range bench.FigureIDs {
		b, _, err := figure(id)
		if err != nil {
			return nil, err
		}
		digests[id] = bench.Digest(b)
	}
	var measured []int
	for r := 0; r < bench.TracedRounds; r++ {
		for _, id := range bench.FigureOrder(seed) {
			b, span, err := figure(id)
			if err != nil {
				return nil, err
			}
			if d := bench.Digest(b); d != digests[id] {
				return nil, fmt.Errorf("%s: response %s differs from the warm-up response %s", id, d, digests[id])
			}
			measured = append(measured, span)
		}
	}
	statsBody, _, err := call(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	err = rec.Do("serve.Drain", "serve", -1, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			return err
		}
		return hs.Shutdown(ctx)
	})
	if err != nil {
		return nil, err
	}

	var snap serve.CacheStatsJSON
	if err := json.Unmarshal(statsBody, &snap); err != nil {
		return nil, err
	}
	values := counterValues(snap)
	if s := snap.Server; s != nil {
		values["serve.requests_failed"] = float64(s.RequestsFailed)
		values["serve.rejected"] = float64(s.RejectedFull + s.RejectedTimeout + s.RejectedDraining)
		values["serve.report_cache_hits"] = float64(s.ReportCacheHits)
	}
	spans := rec.Spans()
	var calls, handler, transport []float64
	for _, c := range measured {
		calls = append(calls, spans[c].Dur()*1000)
		for _, s := range spans {
			if s.Parent == c {
				handler = append(handler, s.Dur()*1000)
				transport = append(transport, (spans[c].Dur()-s.Dur())*1000)
			}
		}
	}
	values["serve.client_ms_p50"] = bench.Median(calls)
	values["serve.handler_ms_p50"] = bench.Median(handler)
	values["serve.transport_ms_p50"] = bench.Median(transport)
	return &bench.LayerOutput{Spans: spans, Values: values, Digests: digests}, nil
}
