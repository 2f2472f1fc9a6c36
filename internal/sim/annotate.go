package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/heapwatch"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Two-stage simulation: the predictor stage walks a materialized trace
// through the predictor exactly once per (benchmark, predictor-config) and
// records everything mechanisms can observe — the mispredict bit and the
// few bits of pre-update predictor state that predictor-coupled mechanisms
// read — into a compact AnnotatedStream. The mechanism stage then replays
// that stream into any number of confidence mechanisms with no predictor in
// the loop: no counter-table lookups, no history shifts, no varint decode
// (records come from a decoded trace.FlatView), just bucket-and-train per
// mechanism.
//
// The split is exact because mechanisms are passive observers: every
// Mechanism reads only the record and the mispredict outcome, and the only
// predictor-coupled mechanism protocol (core.StateCoupled) reads state the
// annotation lane captured before the predictor trained — precisely what
// Run and RunBatch hand it. Replay is therefore byte-identical to
// Run/RunBatch under any chunking or parallelism.

// AnnotatedStream is the predictor stage's output for one (benchmark,
// predictor-config) pair: one mispredict bit per branch, plus an optional
// packed lane of pre-update predictor state for StateCoupled mechanisms.
// At 2 state bits (gshare) the stream costs 3/8 byte per branch — small
// enough to memoize per predictor config (see SetAnnotatedCacheBound).
//
// A fully built stream is immutable and safe for concurrent replays.
type AnnotatedStream struct {
	miss   bitvec.Vector // mispredict bit per branch
	state  *bitvec.Dense // pre-update predictor state lane; nil if the predictor exposes none
	n      int
	misses uint64
}

// Len returns the number of annotated branches.
func (a *AnnotatedStream) Len() int { return a.n }

// Misses returns the total mispredictions in the stream.
func (a *AnnotatedStream) Misses() uint64 { return a.misses }

// HasState reports whether the stream carries a predictor-state lane.
func (a *AnnotatedStream) HasState() bool { return a.state != nil }

// MissWords returns the packed mispredict bits, bit i of word i/64, least
// significant first. The slice is the live backing store and must not be
// mutated — it feeds the monomorphic bucket-lane kernels (core.Factorable)
// and the stage-3 tally kernel.
func (a *AnnotatedStream) MissWords() []uint64 { return a.miss.Words() }

// Footprint returns the stream's payload bytes (mispredict bits plus the
// state lane).
func (a *AnnotatedStream) Footprint() uint64 {
	b := a.miss.Bytes()
	if a.state != nil {
		b += a.state.Bytes()
	}
	return b
}

// Annotate runs the predictor stage: it replays flat through pred once,
// recording the mispredict bit per branch and, when pred implements
// predictor.StateAnnotator, the pre-update state lane. pred is consumed
// (trained) by the walk and must be fresh. The flat view hands out
// complete decoded records — predictors like BTFN and agree read the
// branch target, not just PC and direction — with no varint work.
func Annotate(flat *trace.FlatView, pred predictor.Predictor) *AnnotatedStream {
	a := &AnnotatedStream{}
	annPred, _ := pred.(predictor.StateAnnotator)
	if annPred != nil {
		a.state = bitvec.NewDense(predictor.StateBits, flat.Len())
	}
	n := flat.Len()
	for i := 0; i < n; i++ {
		r := flat.Record(i)
		incorrect := pred.Predict(r) != r.Taken
		if annPred != nil {
			a.state.Append(uint64(annPred.AnnotationState(r)))
		}
		pred.Update(r)
		a.miss.Append(incorrect)
		a.n++
		if incorrect {
			a.misses++
		}
	}
	return a
}

// AnnotateBuffer is Annotate off a replay buffer's varint stream, without
// flattening it first. The streaming producer uses it so a segment in
// flight costs the buffer's ~5 bytes per branch rather than a flat view's
// 24: the predictor walk absorbs the one varint decode, and the consumer
// flattens into its reusable scratch view only when the tally and replay
// kernels — which stream the record lane many times — need it.
func AnnotateBuffer(buf *trace.ReplayBuffer, pred predictor.Predictor) *AnnotatedStream {
	return annotateBufferInto(buf, pred, nil)
}

// annotateBufferInto is AnnotateBuffer reusing spare's bit storage (nil for
// a fresh stream). The streaming producer cycles consumed streams back
// through here, so a long walk keeps a couple of annotated segments'
// storage alive instead of allocating one per segment. spare must be dead:
// reuse restarts the immutable-once-built contract.
func annotateBufferInto(buf *trace.ReplayBuffer, pred predictor.Predictor, spare *AnnotatedStream) *AnnotatedStream {
	a := spare
	annPred, _ := pred.(predictor.StateAnnotator)
	n := buf.Len()
	if a == nil {
		a = &AnnotatedStream{}
	} else {
		a.miss.Reset()
		a.n = 0
		a.misses = 0
	}
	switch {
	case annPred == nil:
		a.state = nil
	case a.state != nil && a.state.Width() == predictor.StateBits:
		a.state.Reset()
	default:
		a.state = bitvec.NewDense(predictor.StateBits, n)
	}
	src := buf.Source()
	for i := 0; i < n; i++ {
		r, err := src.Next()
		if err != nil {
			// A fully built buffer replays exactly n records (see Flatten).
			panic("sim: replay buffer shorter than its length")
		}
		incorrect := pred.Predict(r) != r.Taken
		if annPred != nil {
			a.state.Append(uint64(annPred.AnnotationState(r)))
		}
		pred.Update(r)
		a.miss.Append(incorrect)
		a.n++
		if incorrect {
			a.misses++
		}
	}
	return a
}

// ReplayAnnotated runs the mechanism stage serially: it feeds every branch
// of the annotated stream to each mechanism and returns per-mechanism
// results index-aligned with mechs, byte-identical to RunBatch over the
// original trace with the predictor that produced the stream. It fails if a
// mechanism requires predictor state (core.StateCoupled) the stream does
// not carry.
func ReplayAnnotated(flat *trace.FlatView, ann *AnnotatedStream, mechs []core.Mechanism) ([]Result, error) {
	if flat.Len() != ann.Len() {
		return nil, fmt.Errorf("sim: flat view has %d branches, annotated stream %d", flat.Len(), ann.Len())
	}
	for _, m := range mechs {
		if _, sc := m.(core.StateCoupled); sc && !ann.HasState() {
			return nil, fmt.Errorf("sim: mechanism %s needs predictor state but the annotated stream carries none", m.Name())
		}
	}
	accums := make([]*bucketAccum, len(mechs))
	for i := range accums {
		accums[i] = newBucketAccum()
	}
	replayAnnotated(flat, ann, mechs, accums)
	results := make([]Result, len(mechs))
	for i := range results {
		results[i] = Result{
			Branches: uint64(ann.n),
			Misses:   ann.misses,
			Buckets:  accums[i].stats(),
		}
	}
	return results, nil
}

// replayAnnotated is the mechanism-stage kernel. Unlike the interleaved
// engine — which must keep mechanisms in the inner loop because the
// predictor walks the trace once — replay has no shared state across
// mechanisms, so the loop nests mechanism-outer: each mechanism streams the
// flat PC lane and the packed outcome/mispredict words sequentially with its
// accumulator, coupled-dispatch decision, and devirtualization target all
// loop-invariant. Each mechanism still observes every branch in trace order,
// so results are byte-identical to the interleaved nesting. Mechanisms
// receive the complete decoded record, exactly as RunBatch feeds them.
func replayAnnotated(flat *trace.FlatView, ann *AnnotatedStream, mechs []core.Mechanism, accums []*bucketAccum) {
	n := flat.Len()
	for j, m := range mechs {
		acc := accums[j]
		var sc core.StateCoupled
		if ann.state != nil {
			sc, _ = m.(core.StateCoupled)
		}
		fm, fused := m.(core.Fused)
		var missWd uint64
		for i := 0; i < n; i++ {
			sh := uint(i) & 63
			if sh == 0 {
				missWd = ann.miss.Word(i >> 6)
			}
			r := flat.Record(i)
			incorrect := missWd>>sh&1 == 1
			switch {
			case sc != nil:
				acc.add(sc.BucketWithState(r, uint8(ann.state.At(i))), incorrect)
				m.Update(r, incorrect)
			case fused:
				acc.add(fm.BucketUpdate(r, incorrect), incorrect)
			default:
				acc.add(m.Bucket(r), incorrect)
				m.Update(r, incorrect)
			}
		}
	}
}

// RunSuiteAnnotated is the suite engine: it replays every benchmark through
// a fresh predictor and a fresh instance of each mechanism, and returns one
// SuiteResult per mechanism, index-aligned with newMechs, each holding the
// per-benchmark runs in suite order. Every result equals what Run produces
// for that (benchmark, mechanism) pair over the benchmark's streaming walk
// (pinned by TestSuiteMatchesRunOracle); caching, factoring, segmenting
// and parallelism change only the cost.
//
// The monolithic form obtains each benchmark's (flat view, annotated
// stream) pair from the process-wide annotated cache — walking the
// predictor only on a cache miss — and then trains every mechanism by
// replaying the stream. The fan-out is mechanism-major: mechanisms are
// partitioned into up to parallelism chunks, and each chunk walks every
// benchmark sequentially with its mechanism instances, resetting them
// between benchmarks. That reuse matters — CIR-table mechanisms carry
// megabyte tables, and building them per (benchmark, mechanism) dominated
// the engine's allocation profile. Reset restores exactly the constructed
// state, and the replayed streams are immutable. A non-zero
// cfg.SegmentBranches selects the segmented streaming form instead.
//
// predKey must be non-empty and uniquely identify the predictor
// configuration built by newPred; it keys the annotated cache. A mechanism
// that reads predictor state (core.StateCoupled) the predictor cannot
// annotate fails the call before any work: no engine pass can feed it.
// newPred and newMechs are invoked from multiple goroutines and must be
// pure constructors.
func RunSuiteAnnotated(cfg SuiteConfig, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([]SuiteResult, error) {
	if predKey == "" {
		return nil, errors.New("sim: empty predictor key")
	}
	mechs := make([]core.Mechanism, len(newMechs))
	for j, nm := range newMechs {
		mechs[j] = nm()
	}
	if err := checkStateLane(predKey, newPred, mechs); err != nil {
		return nil, err
	}
	if cfg.SegmentBranches > 0 {
		return runSuiteStreaming(cfg, predKey, newPred, newMechs)
	}
	specs := cfg.specs()
	perSpec := make([][]Result, len(specs))
	for i := range perSpec {
		perSpec[i] = make([]Result, len(newMechs))
	}
	chunks := chunkIndices(len(newMechs), Parallelism())
	shared := make([]sharedAnnotation, len(specs))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for c, chunk := range chunks {
		c, chunk := c, chunk
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := acquireSlot()
			defer release()
			errs[c] = runMechChunk(cfg, specs, shared, predKey, newPred, mechs, chunk, perSpec)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]SuiteResult, len(newMechs))
	for j := range newMechs {
		runs := make([]Result, len(specs))
		for i := range specs {
			runs[i] = perSpec[i][j]
		}
		out[j] = SuiteResult{Runs: runs}
	}
	return out, nil
}

// sharedAnnotation is one benchmark's (flat view, annotated stream) pair
// within a single RunSuiteAnnotated call. The call's chunks share it, so
// the benchmark's annotated-cache entry is claimed once per call: a cache
// hit always means reuse across calls, never a sibling chunk of the same
// call, whatever the chunk count (and hence NumCPU) is.
type sharedAnnotation struct {
	once sync.Once
	flat *trace.FlatView
	ann  *AnnotatedStream
	err  error
}

// get claims the benchmark's pair on first use; later chunks wait on that
// claim and receive the same pair.
func (s *sharedAnnotation) get(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor) (*trace.FlatView, *AnnotatedStream, error) {
	s.once.Do(func() {
		s.flat, s.ann, s.err = annotatedFor(cfg, spec, predKey, newPred)
	})
	return s.flat, s.ann, s.err
}

// checkStateLane fails if a mechanism reads predictor state
// (core.StateCoupled) that the predictor built by newPred does not expose
// (predictor.StateAnnotator): no walk could feed it.
func checkStateLane(predKey string, newPred func() predictor.Predictor, mechs []core.Mechanism) error {
	for _, m := range mechs {
		if _, sc := m.(core.StateCoupled); !sc {
			continue
		}
		if _, ok := newPred().(predictor.StateAnnotator); !ok {
			return fmt.Errorf("sim: mechanism %s needs predictor state but predictor %s annotates none", m.Name(), predKey)
		}
		return nil
	}
	return nil
}

// runMechChunk replays every benchmark through one chunk of mechanisms,
// writing results into perSpec[spec][mech]. The chunk's mechanism
// instances are Reset between benchmarks. Stage labels "annotate", "tally"
// and "replay" mark the work for CPU profiles; the first chunk to reach a
// benchmark claims its cache entry (paying the annotation walk on a miss)
// through shared[spec], later chunks wait on that claim and go straight to
// tally/replay.
//
// Factorable mechanisms (unless the mechanism also reads predictor state)
// are served by the stage-3 bucket-stream cache: their result shares the
// geometry's immutable base histogram, and the per-branch walk happens at
// most once per geometry process-wide. The rest replay on the stage-2
// path.
func runMechChunk(cfg SuiteConfig, specs []workload.Spec, shared []sharedAnnotation, predKey string, newPred func() predictor.Predictor, all []core.Mechanism, chunk []int, perSpec [][]Result) error {
	mechs := make([]core.Mechanism, len(chunk))
	for k, j := range chunk {
		mechs[k] = all[j]
	}
	accums := make([]*bucketAccum, len(chunk))
	for i, spec := range specs {
		var flat *trace.FlatView
		var ann *AnnotatedStream
		var err error
		pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "annotate"), func(context.Context) {
			flat, ann, err = shared[i].get(cfg, spec, predKey, newPred)
		})
		heapwatch.Sample("annotate")
		if err != nil {
			return fmt.Errorf("sim: annotating %s: %w", spec.Name, err)
		}

		for _, m := range mechs {
			m.Reset()
		}

		// Stage 3: serve factorable mechanisms from geometry-keyed bucket
		// streams. StateCoupled mechanisms stay on the replay path even if
		// they claim factorability — their bucket reads predictor state the
		// geometry alone cannot reproduce.
		tallied := make([]bool, len(chunk))
		var terr error
		pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "tally"), func(context.Context) {
			for k, j := range chunk {
				fm, ok := mechs[k].(core.Factorable)
				if !ok {
					continue
				}
				if _, sc := mechs[k].(core.StateCoupled); sc {
					continue
				}
				bs, err := bucketStreamFor(cfg, spec, predKey, flat, ann, fm)
				if err != nil {
					terr = fmt.Errorf("sim: tallying %s: %w", spec.Name, err)
					return
				}
				perSpec[i][j] = Result{
					Benchmark: spec.Name,
					Branches:  uint64(bs.n),
					Misses:    bs.misses,
					Buckets:   bs.Stats(),
				}
				tallied[k] = true
			}
		})
		heapwatch.Sample("tally")
		if terr != nil {
			return terr
		}

		var replayMechs []core.Mechanism
		var replayAt []int // chunk-local indices of replayMechs
		for k := range mechs {
			if !tallied[k] {
				replayMechs = append(replayMechs, mechs[k])
				replayAt = append(replayAt, k)
			}
		}
		if len(replayMechs) == 0 {
			continue
		}
		accums = accums[:len(replayMechs)]
		for k := range accums {
			accums[k] = newBucketAccum()
		}
		pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "replay"), func(context.Context) {
			replayAnnotated(flat, ann, replayMechs, accums)
		})
		heapwatch.Sample("replay")
		for x, k := range replayAt {
			perSpec[i][chunk[k]] = Result{
				Benchmark: spec.Name,
				Branches:  uint64(ann.n),
				Misses:    ann.misses,
				Buckets:   accums[x].stats(),
			}
		}
	}
	return nil
}

// chunkIndices partitions [0,n) into at most k contiguous chunks of
// near-equal size; chunk 0 is never empty for n > 0.
func chunkIndices(n, k int) [][]int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k < 1 {
		return [][]int{{}}
	}
	chunks := make([][]int, k)
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		idx := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			idx = append(idx, j)
		}
		chunks[c] = idx
	}
	return chunks
}
