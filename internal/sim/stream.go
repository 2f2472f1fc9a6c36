package sim

import (
	"context"
	"errors"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/heapwatch"
	"branchconf/internal/predictor"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Segmented streaming engine: the bounded-memory form of the three-stage
// pipeline for horizons no whole-trace buffer can hold. Instead of
// materialize-whole → annotate-whole → tally-whole, a unit (one benchmark ×
// one predictor config × all mechanisms) walks fixed-size trace segments:
//
//	producer: materialize segment k+1 → annotate it (predictor carried
//	          across segments) → hand it over a bounded channel
//	consumer: tally segment k through each geometry's resumable factor
//	          state (core.Resumable) → replay it into the rest
//
// so annotation of segment k+1 overlaps tallying of segment k, and at most
// streamInflightSegments+2 segments are resident per unit at any horizon.
// Per-branch work is byte-identical to the monolithic engine: segments
// decode to exactly the monolithic records (trace.Segmenter), the carried
// predictor observes every branch in order, resumable factor states emit
// the monolithic bucket sequence (core.FactorState), and per-segment
// histograms merge exactly (analysis.TallyMerger). Pinned by
// TestStreamingMatchesMonolithic across segment sizes including 1.
//
// Warm starts carry over via segment-indexed artifacts: each segment's
// annotated stream and bucket streams persist under keys carrying the
// segment size and index, and compact predictor/factor-state checkpoints
// (Checkpoint) persist at segment boundaries, so a later process can serve
// some segments from disk and resume the walk at the first cold one. A warm
// segment leaves the walk state stale; if the following cold segment finds
// no valid boundary checkpoint to revive it, the unit retries once with
// every disk read skipped (forceLive), rebuilding — and re-publishing —
// everything from the start of the trace.

// streamInflightSegments is the bounded channel capacity between the
// annotate producer and the tally/replay consumer. With the segment the
// producer is preparing and the one the consumer holds, a unit keeps at
// most this+2 segments resident.
const streamInflightSegments = 2

// errStaleState aborts a streaming pass when a warm segment left the walk
// state stale and the next cold segment has no usable boundary checkpoint.
// The unit then reruns forceLive.
var errStaleState = errors.New("sim: stale streaming state: no usable checkpoint after warm segment")

// Streaming observability: warm vs live segment payloads, forceLive
// retries, checkpoint restores, and the in-flight segment-bytes high-water
// mark (the quantity the bounded pipeline keeps flat at any horizon).
var (
	streamSegWarm       atomic.Uint64
	streamSegLive       atomic.Uint64
	streamRetries       atomic.Uint64
	streamCkptRestores  atomic.Uint64
	streamInflightBytes atomic.Int64
	streamPeakBytes     atomic.Int64
)

// StreamReport returns the streaming engine's observability quad: Hits are
// segment payloads (annotated or bucket) served from the artifact tier,
// Misses are segment payloads built live, VerifyFails are forceLive unit
// retries after stale-state aborts, and ResidentBytes is the peak bytes of
// in-flight segments across all concurrent units.
func StreamReport() CacheStats {
	return CacheStats{
		Hits:          streamSegWarm.Load(),
		Misses:        streamSegLive.Load(),
		VerifyFails:   streamRetries.Load(),
		ResidentBytes: uint64(streamPeakBytes.Load()),
	}
}

// ResetStreamStats zeroes the streaming counters (tests and batch
// boundaries).
func ResetStreamStats() {
	streamSegWarm.Store(0)
	streamSegLive.Store(0)
	streamRetries.Store(0)
	streamCkptRestores.Store(0)
	streamInflightBytes.Store(0)
	streamPeakBytes.Store(0)
}

// trackInflight adds one segment's payload bytes to the in-flight gauge and
// advances the high-water mark.
func trackInflight(b int64) {
	cur := streamInflightBytes.Add(b)
	for {
		p := streamPeakBytes.Load()
		if cur <= p || streamPeakBytes.CompareAndSwap(p, cur) {
			return
		}
	}
}

func untrackInflight(b int64) { streamInflightBytes.Add(-b) }

// segMsg is one annotated segment in flight from producer to consumer. The
// trace rides as the compact varint replay buffer (~5 bytes per branch),
// not a flat view: the consumer flattens it into the unit's one reusable
// scratch view, so queued segments stay cheap and the 24-bytes-per-branch
// decode buffer exists once per unit, not once per queued segment.
type segMsg struct {
	err   error
	idx   int    // segment index
	start uint64 // branch position of the segment's first record
	buf   *trace.ReplayBuffer
	ann   *AnnotatedStream
	bytes int64 // tracked in-flight footprint
}

// runSuiteStreaming is the segmented form of RunSuiteAnnotated, dispatched
// when cfg.SegmentBranches > 0. Fan-out is unit-major — one slot-bounded
// goroutine per benchmark, each running its own producer/consumer pipeline —
// rather than the monolithic engine's mechanism-major chunking: a streaming
// unit's stages are already overlapped internally, and unit-major keeps
// every unit's resident segments independently bounded.
func runSuiteStreaming(cfg SuiteConfig, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([]SuiteResult, error) {
	specs := cfg.specs()
	perSpec := make([][]Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := acquireSlot()
			defer release()
			perSpec[i], errs[i] = runStreamUnit(cfg, spec, predKey, newPred, newMechs)
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

// runStreamUnit runs one streaming unit, retrying once with all disk reads
// skipped when partially warm artifacts leave the walk unresumable.
func runStreamUnit(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism) ([]Result, error) {
	rs, err := streamUnitOnce(cfg, spec, predKey, newPred, newMechs, false)
	if errors.Is(err, errStaleState) {
		streamRetries.Add(1)
		rs, err = streamUnitOnce(cfg, spec, predKey, newPred, newMechs, true)
	}
	return rs, err
}

// geomLane is one geometry's rolling tally state within a streaming unit:
// the resumable mechanism serving the geometry, the factor state positioned
// at stAt (nil after a warm segment leaves it stale), and the merger
// folding per-segment histograms into the unit's base histogram.
type geomLane struct {
	fm     core.Resumable
	geom   string
	width  uint
	st     core.FactorState
	stAt   uint64
	merger *analysis.TallyMerger
	lane   *bitvec.Dense // scratch lane for a geometry too wide to count in the walk
	counts []uint64      // running fused histogram across live segments (nil until first)
}

// streamUnitOnce runs one benchmark's bounded pipeline. forceLive skips
// every artifact read — walks rebuild from the start of the trace — while
// still publishing fresh payloads, healing whatever gap aborted the first
// pass.
func streamUnitOnce(cfg SuiteConfig, spec workload.Spec, predKey string, newPred func() predictor.Predictor, newMechs []func() core.Mechanism, forceLive bool) ([]Result, error) {
	budget := cfg.Branches
	if budget == 0 {
		budget = spec.DefaultBranches
	}
	segSize := cfg.SegmentBranches

	mechs := make([]core.Mechanism, len(newMechs))
	for j := range newMechs {
		mechs[j] = newMechs[j]()
	}
	pred := newPred()
	_, wantState := pred.(predictor.StateAnnotator)

	// Partition mechanisms: resumable factorable geometries tally per
	// segment through a shared lane walk; everything else (StateCoupled or
	// non-factorable) replays per segment with accumulators persisting
	// across segments.
	var lanes []*geomLane
	laneByGeom := map[string]*geomLane{}
	laneOf := make([]*geomLane, len(mechs))
	var replayMechs []core.Mechanism
	var replayAt []int
	for j, m := range mechs {
		fm, resumable := m.(core.Resumable)
		_, sc := m.(core.StateCoupled)
		if resumable && !sc {
			key := fm.GeometryKey()
			g := laneByGeom[key]
			if g == nil {
				g = &geomLane{fm: fm, geom: key, width: fm.BucketWidth(), merger: analysis.NewTallyMerger()}
				laneByGeom[key] = g
				lanes = append(lanes, g)
			}
			laneOf[j] = g
		} else {
			replayMechs = append(replayMechs, m)
			replayAt = append(replayAt, j)
		}
	}
	accums := make([]*bucketAccum, len(replayMechs))
	for k := range accums {
		accums[k] = newBucketAccum()
	}

	ch := make(chan segMsg, streamInflightSegments)
	stop := make(chan struct{})
	// Consumed segments cycle back to the producer for storage reuse: a
	// long walk keeps a handful of segment buffers and annotated streams
	// alive instead of allocating — and garbage-collecting — one pair per
	// segment, which is what keeps peak heap flat at any horizon rather
	// than merely the tracked in-flight bytes.
	freeBufs := make(chan *trace.ReplayBuffer, streamInflightSegments+2)
	freeAnns := make(chan *AnnotatedStream, streamInflightSegments+2)
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	unit := segKey{spec: spec, n: budget, predKey: predKey, segSize: segSize}
	go func() {
		defer prodWG.Done()
		defer close(ch)
		streamProduce(cfg, unit, pred, wantState, forceLive, ch, stop, freeBufs, freeAnns)
	}()

	var err error
	var pos, cum uint64
	var scratch *trace.FlatView // one decode buffer for every segment
consume:
	for msg := range ch {
		if msg.err != nil {
			err = msg.err
			break
		}
		flat := msg.buf.FlattenInto(scratch)
		scratch = flat
		segN := uint64(flat.Len())
		for _, g := range lanes {
			if e := consumeSegGeom(g, unit, flat, msg, cum, forceLive); e != nil {
				err = e
				untrackInflight(msg.bytes)
				break consume
			}
		}
		if len(lanes) > 0 {
			heapwatch.Sample("stream-tally")
		}
		if len(replayMechs) > 0 {
			pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "stream-replay"), func(context.Context) {
				replayAnnotated(flat, msg.ann, replayMechs, accums)
			})
			heapwatch.Sample("stream-replay")
		}
		cum += msg.ann.misses
		pos += segN
		untrackInflight(msg.bytes)
		select {
		case freeBufs <- msg.buf:
		default:
		}
		select {
		case freeAnns <- msg.ann:
		default:
		}
	}
	close(stop)
	prodWG.Wait()
	if err != nil {
		return nil, err
	}

	// Fold each geometry's running fused histogram into its merger (exact
	// integer sums, so deferring past the warm segments' merges is order-
	// independent).
	for _, g := range lanes {
		if g.counts != nil {
			g.merger.Merge(countsToStats(g.counts))
			g.counts = nil
		}
	}
	results := make([]Result, len(mechs))
	for j := range mechs {
		if g := laneOf[j]; g != nil {
			results[j] = Result{
				Benchmark: spec.Name,
				Branches:  pos,
				Misses:    cum,
				Buckets:   g.merger.Stats(),
			}
		}
	}
	for x, j := range replayAt {
		results[j] = Result{
			Benchmark: spec.Name,
			Branches:  pos,
			Misses:    cum,
			Buckets:   accums[x].stats(),
		}
	}
	return results, nil
}

// streamProduce is the producer half of a unit's pipeline: it materializes
// and annotates segments in trace order, serving warm annotated segments
// from the artifact tier when possible and reviving the predictor from a
// boundary checkpoint when a warm segment left it stale. Each prepared
// segment is handed over ch; a closed stop channel (consumer error) ends
// production.
func streamProduce(cfg SuiteConfig, unit segKey, pred predictor.Predictor, wantState, forceLive bool, ch chan<- segMsg, stop <-chan struct{}, freeBufs chan *trace.ReplayBuffer, freeAnns chan *AnnotatedStream) {
	fail := func(err error) {
		select {
		case ch <- segMsg{err: err}:
		case <-stop:
		}
	}
	spec := unit.spec
	src, err := spec.FiniteSource(cfg.Branches)
	if err != nil {
		fail(err)
		return
	}
	segr := trace.NewSegmenter(src, int(unit.segSize))
	ckpred, canCkpt := pred.(predictor.Checkpointer)
	persist := artifact.Default() != nil
	predValid := true // pred is trained exactly through the current boundary
	var pos, cum uint64
	for idx := 0; ; idx++ {
		select {
		case b := <-freeBufs:
			segr.Recycle(b)
		default:
		}
		buf, err := segr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			fail(err)
			return
		}
		heapwatch.Sample("stream-materialize")
		var ann *AnnotatedStream
		warm := false
		if !forceLive {
			// A stored segment must have the segment's length and the
			// state lane the live walk would produce.
			segN := buf.Len()
			ann, warm = annSegTier.Load(unit.with("", uint64(idx)), func(a *AnnotatedStream) bool {
				return a.n == segN && a.HasState() == wantState
			})
		}
		if warm {
			// The predictor did not observe this segment; it can only
			// continue from a boundary checkpoint.
			predValid = false
			streamSegWarm.Add(1)
		} else {
			if !predValid {
				// The checkpoint's position and cumulative misses must match
				// the unit's own running totals before its state reaches the
				// predictor codec.
				restored := false
				if canCkpt {
					_, restored = ckptTier.Load(unit.with("", pos), func(c Checkpoint) bool {
						return c.Branch == pos && c.Misses == cum && ckpred.RestoreState(c.State) == nil
					})
				}
				if !restored {
					fail(errStaleState)
					return
				}
				streamCkptRestores.Add(1)
				predValid = true
			}
			var spare *AnnotatedStream
			select {
			case spare = <-freeAnns:
			default:
			}
			pprof.Do(context.Background(), pprof.Labels("benchmark", spec.Name, "stage", "stream-annotate"), func(context.Context) {
				ann = annotateBufferInto(buf, pred, spare)
			})
			heapwatch.Sample("stream-annotate")
			annSegTier.Save(unit.with("", uint64(idx)), ann)
			streamSegLive.Add(1)
		}
		cum += ann.misses
		pos += uint64(buf.Len())
		if persist && predValid && canCkpt && pos < unit.n {
			ckptTier.Save(unit.with("", pos), Checkpoint{Branch: pos, Misses: cum, State: ckpred.MarshalState()})
		}
		bytes := int64(buf.Footprint() + ann.Footprint())
		trackInflight(bytes)
		select {
		case ch <- segMsg{idx: idx, start: pos - uint64(buf.Len()), buf: buf, ann: ann, bytes: bytes}:
		case <-stop:
			untrackInflight(bytes)
			return
		}
	}
}

// consumeSegGeom advances one geometry lane through one segment: serve the
// segment's bucket stream warm from the artifact tier, or walk it live from
// the geometry's factor state — reviving the state from a boundary
// checkpoint if a warm segment left it stale. cumStart is the unit's
// cumulative miss count at the segment's first branch, cross-checked
// against checkpoints and folded into the one written at the exit boundary.
func consumeSegGeom(g *geomLane, unit segKey, flat *trace.FlatView, msg segMsg, cumStart uint64, forceLive bool) error {
	segN := flat.Len()
	if !forceLive {
		if bs, ok := bucketSegTier.Load(unit.with(g.geom, uint64(msg.idx)), msg.ann.agrees); ok {
			g.merger.Merge(bs.Stats())
			g.st = nil // the walk state did not observe this segment
			streamSegWarm.Add(1)
			return nil
		}
	}
	if g.st == nil || g.stAt != msg.start {
		if msg.start == 0 {
			g.st = g.fm.NewFactorState()
		} else {
			// Same cross-checks as the predictor's checkpoint, then the
			// geometry's own codec.
			var st core.FactorState
			_, ok := ckptTier.Load(unit.with(g.geom, msg.start), func(c Checkpoint) bool {
				if c.Branch != msg.start || c.Misses != cumStart {
					return false
				}
				var err error
				st, err = g.fm.RestoreFactorState(c.State)
				return err == nil
			})
			if !ok {
				return errStaleState
			}
			g.st = st
			streamCkptRestores.Add(1)
		}
		g.stAt = msg.start
	}
	// Live fused segments fold straight into the geometry's running uint64
	// count array; a segment's own BucketStats is drained only when the
	// artifact tier needs it for the segment payload.
	// Folding the running histogram into the merger at unit exit instead of
	// per segment changes nothing: tallies are exact integer sums, so the
	// merge is commutative with the warm segments' merges.
	persist := artifact.Default() != nil
	var stats analysis.BucketStats
	if g.width <= fusedTallyLimit {
		counts := countsPool.Get().([]uint32)
		used := counts[:2<<g.width]
		clear(used)
		g.fm.FillBucketLaneResume(g.st, flat.Records(), msg.ann.MissWords(), nil, used)
		if g.counts == nil {
			g.counts = make([]uint64, 2<<g.width)
		}
		for i, c := range used {
			g.counts[i] += uint64(c)
		}
		if persist {
			stats = countsToStats(used)
		}
		countsPool.Put(counts)
	} else {
		if g.lane == nil {
			g.lane = bitvec.NewDense(g.width, segN)
		} else {
			g.lane.Reset()
		}
		g.fm.FillBucketLaneResume(g.st, flat.Records(), msg.ann.MissWords(), g.lane, nil)
		stats = tallyLane(g.lane, msg.ann.MissWords(), segN)
		g.merger.Merge(stats)
	}
	end := msg.start + uint64(segN)
	g.stAt = end
	if persist {
		bucketSegTier.Save(unit.with(g.geom, uint64(msg.idx)), &BucketStream{n: segN, misses: msg.ann.misses, stats: stats})
		if end < unit.n {
			ckptTier.Save(unit.with(g.geom, end), Checkpoint{Branch: end, Misses: cumStart + msg.ann.misses, State: g.st.MarshalState()})
		}
	}
	streamSegLive.Add(1)
	return nil
}
