package main

import (
	"crypto/rand"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"branchconf/internal/analysis"
	"branchconf/internal/apps"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/pipeline"
	"branchconf/internal/predictor"
	"branchconf/internal/sim"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
	"branchconf/perfbench/internal/bench"
)

// Probes time one layer function at a time on a fixed slice of the suite:
// the first probeBranches branches of each of the nine benchmarks. Each
// probe runs probeReps times and reports the median.
const (
	probeBranches = 50000
	probeReps     = 5
)

// probeSlice is the materialized slice every probe reads.
type probeSlice struct {
	specs []workload.Spec
	bufs  []*trace.ReplayBuffer
	flats []*trace.FlatView
	miss  [][]uint64 // gshare-64K mispredict bits per benchmark
	n     int        // total branches
}

func newProbeSlice() (*probeSlice, error) {
	p := &probeSlice{specs: workload.Suite()}
	for _, spec := range p.specs {
		buf, err := workload.Materialize(spec, probeBranches)
		if err != nil {
			return nil, err
		}
		p.bufs = append(p.bufs, buf)
		p.flats = append(p.flats, buf.Flatten())
		p.miss = append(p.miss, sim.AnnotateBuffer(buf, predictor.Gshare64K()).MissWords())
		p.n += buf.Len()
	}
	return p, nil
}

// timeReps runs f probeReps times and returns the median seconds.
func timeReps(f func() error) (float64, error) {
	var times []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return bench.Median(times), nil
}

// runProbes measures every probe and returns them as per-layer values.
func runProbes() (*bench.LayerOutput, error) {
	p, err := newProbeSlice()
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	perBranch := func(name string, n int, f func() error) error {
		s, err := timeReps(f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = s * 1e9 / float64(n)
		return nil
	}

	// workload: the generator walk behind every trace.
	err = perBranch("workload.walk_ns_per_branch", p.n, func() error {
		for _, spec := range p.specs {
			src, err := spec.NewSource()
			if err != nil {
				return err
			}
			for i := 0; i < probeBranches; i++ {
				if _, err := src.Next(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// trace: decoding a replay buffer into flat records.
	flats := make([]*trace.FlatView, len(p.bufs))
	err = perBranch("trace.flatten_ns_per_branch", p.n, func() error {
		for i, buf := range p.bufs {
			flats[i] = buf.FlattenInto(flats[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// predictor: Predict then Update on every branch.
	for _, name := range []string{"gshare-64K", "gshare-4K", "tournament-64K", "tage", "perceptron"} {
		if _, err := predictor.Build(name); err != nil {
			return nil, err
		}
		err := perBranch("predictor.ns_per_branch."+name, p.n, func() error {
			for _, flat := range p.flats {
				pred, _ := predictor.Build(name)
				for _, r := range flat.Records() {
					pred.Predict(r)
					pred.Update(r)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// core: the fused fill kernels, one geometry each.
	fills := []struct {
		name string
		mech core.Resumable
	}{
		{"onelevel", core.PaperOneLevel(core.IndexPCxorBHR)},
		{"twolevel", core.PaperTwoLevels()[0]},
		{"resetting", core.PaperResetting()},
	}
	for _, f := range fills {
		w := f.mech.BucketWidth()
		var counts []uint32
		if w <= 16 {
			counts = make([]uint32, 2<<w)
		}
		lane := bitvec.NewDense(w, probeBranches)
		err := perBranch("core.fill_ns_per_branch."+f.name, p.n, func() error {
			for i, flat := range p.flats {
				lane.Reset()
				clear(counts)
				f.mech.FillBucketLaneResume(f.mech.NewFactorState(), flat.Records(), p.miss[i], lane, counts)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// analysis: the curve build and the curve-cache key over one
	// mechanism's per-benchmark bucket statistics.
	rs, err := sim.RunSuiteAnnotated(sim.SuiteConfig{Branches: probeBranches, Specs: p.specs}, "gshare-64K",
		predictor.Gshare64K, []func() core.Mechanism{func() core.Mechanism { return core.PaperOneLevel(core.IndexPCxorBHR) }})
	if err != nil {
		return nil, err
	}
	runs := rs[0].Stats()
	buckets := 0
	for _, bs := range runs {
		buckets += len(bs)
	}
	for name, f := range map[string]func(){
		"analysis.curve_ns_per_bucket":    func() { analysis.BuildCurve(analysis.CompositePooled(runs)) },
		"analysis.hashruns_ns_per_bucket": func() { analysis.HashRuns(runs) },
	} {
		if err := perBranch(name, buckets, func() error { f(); return nil }); err != nil {
			return nil, err
		}
	}

	// pipeline and apps: the cycle models, with the estimators the
	// experiments give them.
	models := []struct {
		name string
		run  func(src trace.Source) error
	}{
		{"pipeline.run_ns_per_branch", func(src trace.Source) error {
			_, err := pipeline.Run(src, predictor.Gshare4K(), core.PaperEstimator(8), pipeline.Config{FetchWidth: 4, Depth: 8, GateThreshold: 2})
			return err
		}},
		{"pipeline.dualpath_ns_per_branch", func(src trace.Source) error {
			_, err := pipeline.RunDualPath(src, predictor.Gshare4K(), core.PaperEstimator(8), pipeline.DualPathConfig{FetchWidth: 4, Depth: 12, ForkWidth: 1})
			return err
		}},
		{"apps.gating_ns_per_branch", func(src trace.Source) error {
			_, err := apps.RunGating(src, predictor.Gshare4K(), core.PaperEstimator(8), apps.GateConfig{ResolveDistance: 4, Threshold: 2})
			return err
		}},
		{"apps.dualpath_ns_per_branch", func(src trace.Source) error {
			_, err := apps.RunDualPath(src, predictor.Gshare64K(), core.PaperEstimator(16), apps.DefaultDualPath())
			return err
		}},
	}
	for _, m := range models {
		err := perBranch(m.name, p.n, func() error {
			for _, buf := range p.bufs {
				if err := m.run(buf.Source()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// The SMT model interleaves the apps experiment's four-thread mix until
	// 4 × the per-benchmark slice of fetch slots is spent, as that
	// experiment does with its budget.
	err = perBranch("apps.smt_ns_per_branch", 4*probeBranches, func() error {
		var threads []*apps.SMTThread
		for i, spec := range p.specs {
			switch spec.Name {
			case "groff", "real_gcc", "jpeg_play", "sdet":
				threads = append(threads, &apps.SMTThread{Name: spec.Name, Src: p.bufs[i].Source(), Pred: predictor.Gshare4K(), Est: core.PaperEstimator(16)})
			}
		}
		if len(threads) != 4 {
			return fmt.Errorf("the suite has %d of the four SMT mix benchmarks", len(threads))
		}
		_, err := apps.RunSMT(threads, apps.SMTConfig{ResolveSlots: 6, Gated: true}, 4*probeBranches)
		return err
	})
	if err != nil {
		return nil, err
	}

	if err := artifactProbes(v); err != nil {
		return nil, err
	}
	return &bench.LayerOutput{Values: v}, nil
}

// artifactProbes measures record decoding with its CRC-64 check, and
// Remote.Get over loopback against an in-process remote server.
func artifactProbes(v map[string]float64) error {
	const payloadBytes = 4 << 20
	payload := make([]byte, payloadBytes)
	rand.Read(payload)
	record := artifact.EncodeRecord(artifact.KindCurve, "perfbench-probe", payload)
	s, err := timeReps(func() error {
		_, err := artifact.DecodeRecord(record, artifact.KindCurve, "perfbench-probe")
		return err
	})
	if err != nil {
		return err
	}
	v["artifact.decode_mb_per_s"] = float64(len(record)) / (1 << 20) / s

	dir, err := os.MkdirTemp("", "remote-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.OpenStore(dir, artifact.Options{})
	if err != nil {
		return err
	}
	keys := []string{"probe-0", "probe-1", "probe-2", "probe-3"}
	for _, k := range keys {
		rand.Read(payload)
		if err := store.Put(artifact.KindCurve, k, payload); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: artifact.NewRemoteServer(store).Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	remote := artifact.NewRemote("http://"+ln.Addr().String(), nil)
	defer remote.Close()
	s, err = timeReps(func() error {
		for _, k := range keys {
			if _, _, ok := remote.Get(artifact.KindCurve, k); !ok {
				return fmt.Errorf("remote get %s: miss", k)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["artifact.remote_get_mb_per_s"] = float64(len(keys)*payloadBytes) / (1 << 20) / s
	return nil
}
