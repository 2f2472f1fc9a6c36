package sim

import (
	"fmt"
	"sync"
	"unsafe"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Stage 3 of the simulation engine: geometry-keyed bucket streams. For a
// factorable mechanism (core.Factorable — one- and two-level CIR tables,
// counter tables) the per-branch bucket sequence is a pure function of
// the annotated (PC, Taken, mispredict) stream and the table geometry,
// never of the reduction function, threshold, or counter policy layered
// on top. So the engine replays each annotated stream through each
// geometry exactly once, into a BucketStream: the base histogram of
// (pattern, events, misses) tallies in ascending pattern order. Every
// variant over the same geometry is then served by sharing the immutable
// histogram at O(1) marginal cost — no O(branches) replay — and the
// build itself runs a monomorphic raw-table kernel
// (core.Factorable.FillBucketLane) that is several times faster per
// branch than the interface-dispatched stage-2 replay.
//
// The factoring is exact: the walk counts precisely the buckets the
// stage-2 replay would feed its accumulator, so the histogram has
// identical integer counts and every downstream artefact is byte-identical
// (asserted against the straight-line Run by TestSuiteMatchesRunOracle).
//
// The per-branch bucket sequence itself is kept only where a consumer
// reads it branch by branch: the cycle models read counter-table lanes
// (CounterLane, through Lanes), memoized in memory beside the histograms.

// BucketStream is the stage-3 artifact for one (benchmark, predictor
// config, geometry) triple: the base histogram of its bucket sequence,
// with the branch and miss counts it ties out against. A fully built
// stream is immutable and safe for concurrent use.
type BucketStream struct {
	stats  analysis.BucketStats // base histogram, in ascending bucket order
	n      int
	misses uint64
}

// Len returns the number of branches in the stream.
func (b *BucketStream) Len() int { return b.n }

// Stats returns the base histogram for use as a Result's bucket
// statistics. The slice is shared by every variant served from this
// stream (and by the stream cache) and must be treated as read-only —
// which every consumer already is: Result.Buckets only ever feeds the
// read-only analysis composites and the Derive* partitions. Sharing makes
// the per-variant marginal cost O(1).
func (b *BucketStream) Stats() analysis.BucketStats { return b.stats }

// Footprint returns the stream's payload bytes: the base histogram's
// entries.
func (b *BucketStream) Footprint() uint64 {
	return uint64(len(b.stats)) * uint64(unsafe.Sizeof(analysis.BucketTally{}))
}

// CounterLane is one counter table's per-branch bucket lane: the counter
// value each branch read before training, packed. It is immutable once
// built and safe for concurrent reads.
type CounterLane struct {
	lane *bitvec.Dense
}

// Bucket returns the i-th branch's counter value.
func (c *CounterLane) Bucket(i int) uint64 { return c.lane.At(i) }

// Below returns the packed bit lane of branches whose counter is below
// threshold — bit i of word i/64, least significant first — which is the
// low-confidence lane of a counter estimator with that threshold
// (core.CounterReducer).
func (c *CounterLane) Below(threshold uint64) []uint64 {
	n := c.lane.Len()
	out := make([]uint64, (n+63)/64)
	var (
		words   = c.lane.Words()
		width   = c.lane.Width()
		perWord = int(c.lane.PerWord())
		mask    = uint64(1)<<width - 1
	)
	for i, wi := 0, 0; i < n; wi++ {
		w := words[wi]
		for k := 0; k < perWord && i < n; k, i = k+1, i+1 {
			if w&mask < threshold {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
			w >>= width
		}
	}
	return out
}

// Footprint returns the lane's payload bytes.
func (c *CounterLane) Footprint() uint64 { return c.lane.Bytes() }

// fusedTallyLimit bounds the fused dense-histogram build path: for bucket
// widths up to 16 bits (every paper geometry) FillBucketLane counts into a
// flat 2<<width uint32 array while the bucket value is still in a register,
// and the separate lane pass (tallyLane) is skipped entirely. Wider lanes
// fall back to the word-parallel tally kernel over the finished lane.
const fusedTallyLimit = 16

// countsPool recycles the fused histogram arrays (512 KB at the width cap)
// between builds; only the 2<<width prefix in use is zeroed per build.
var countsPool = sync.Pool{
	New: func() any { return make([]uint32, 2<<fusedTallyLimit) },
}

// countsToStats drains a fused histogram — interleaved (events, misses)
// counts indexed by bucket — into the histogram the analysis layer
// consumes, in ascending bucket order. The integer counts are exactly what
// the stage-2 replay accumulator would produce. The fill kernels count in
// uint32; the streaming engine's per-geometry running histogram counts in
// uint64, so no horizon can overflow it.
func countsToStats[C uint32 | uint64](counts []C) analysis.BucketStats {
	occupied := 0
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			occupied++
		}
	}
	bs := make(analysis.BucketStats, 0, occupied)
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			bs = append(bs, analysis.BucketTally{
				Bucket: uint64(b >> 1),
				Tally:  analysis.Tally{Events: uint64(counts[b]), Misses: uint64(counts[b+1])},
			})
		}
	}
	return bs
}

// tallyLane is the word-parallel tally kernel: it folds the packed bucket
// lane against the packed mispredict bits into per-bucket tallies, loading
// one lane word per PerWord() branches and one miss word per 64. The
// result has exactly the integer counts the stage-2 replay accumulator
// would produce for the same stream.
func tallyLane(lane *bitvec.Dense, miss []uint64, n int) analysis.BucketStats {
	acc := newBucketAccum()
	var (
		words   = lane.Words()
		width   = lane.Width()
		perWord = lane.PerWord()
		mask    = uint64(1)<<width - 1
		wi      int
		shift   uint
		slot    uint
		laneWd  uint64
		missWd  uint64
	)
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		if uint(i)&63 == 0 {
			missWd = miss[i>>6]
		}
		if slot == 0 {
			laneWd = words[wi]
		}
		acc.add(laneWd>>shift&mask, missWd>>(uint(i)&63)&1 == 1)
		slot++
		shift += width
		if slot == perWord {
			slot, shift, wi = 0, 0, wi+1
		}
	}
	return acc.stats()
}

// bucketKey identifies one bucket stream: the benchmark and budget fix the
// branch stream, the predictor key fixes the mispredict bits, and the
// geometry key fixes the tables the stream walks.
type bucketKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
	geom    string
}

// BucketTier memoizes bucket streams geometry-keyed, persisted as
// KindBucketStream records. Its resident bound follows -annotate-cache-mb
// (SetTallyCacheDefaultBound). Its counters count bucket-stream claims;
// its resident bytes include the counter lanes sharing its memory.
var BucketTier = &memo.Tier[bucketKey, *BucketStream]{
	Name: "bucket-stream",
	Kind: artifact.KindBucketStream,
	Key: func(k bucketKey) string {
		return bucketArtifactKey(k.spec, k.n, k.predKey, k.geom)
	},
	Encode: marshalBucketStream,
	Decode: unmarshalBucketStream,
	Size:   (*BucketStream).Footprint,
}

// SetTallyCacheDefaultBound bounds the resident payload bytes of the
// bucket-stream tier (histograms plus counter lanes). 0 removes the bound.
func SetTallyCacheDefaultBound(bytes uint64) { BucketTier.SetBound(bytes) }

// bucketStreamFor returns the memoized bucket stream for one (benchmark,
// predictor config, geometry) triple, tallying it on a miss in memory and
// on disk. The caller supplies the benchmark's (flat view, annotated
// stream) pair it already holds, so the bucket claim never touches the
// annotated tier. Concurrent claimants of the same key share one build.
// fm is only read (FillBucketLane replays a private copy of its initial
// state), so chunk-local mechanism instances are safe to pass from
// parallel goroutines.
func bucketStreamFor(cfg SuiteConfig, spec workload.Spec, predKey string, flat *trace.FlatView, ann *AnnotatedStream, fm core.Factorable) (*BucketStream, error) {
	return BucketTier.Get(bucketKeyFor(cfg, spec, predKey, fm), ann.agrees, func() (*BucketStream, error) {
		return tallyWalk(flat, ann, fm, nil), nil
	})
}

// bucketKeyFor names fm's bucket stream over one benchmark's annotated
// stream under cfg's budget.
func bucketKeyFor(cfg SuiteConfig, spec workload.Spec, predKey string, fm core.Factorable) bucketKey {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	return bucketKey{spec: spec, n: n, predKey: predKey, geom: fm.GeometryKey()}
}

// tallyWalk walks ann through fm's geometry from its initial state and
// returns the bucket stream, also appending every bucket to lane when
// lane is non-nil. Widths up to fusedTallyLimit count in the walk; a wider
// geometry fills a lane (a scratch one if lane is nil) and folds it with
// tallyLane.
func tallyWalk(flat *trace.FlatView, ann *AnnotatedStream, fm core.Factorable, lane *bitvec.Dense) *BucketStream {
	width := fm.BucketWidth()
	var stats analysis.BucketStats
	if width <= fusedTallyLimit {
		counts := countsPool.Get().([]uint32)
		used := counts[:2<<width]
		clear(used)
		fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, used)
		stats = countsToStats(used)
		countsPool.Put(counts)
	} else {
		if lane == nil {
			lane = bitvec.NewDense(width, flat.Len())
		}
		fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, nil)
		stats = tallyLane(lane, ann.MissWords(), ann.n)
	}
	return &BucketStream{n: ann.n, misses: ann.misses, stats: stats}
}

// counterLaneKey names a counter lane: the bucket stream's key, as a type
// of its own so the lanes can share the bucket tier's memory.
type counterLaneKey bucketKey

// counterLaneTier memoizes counter lanes in the bucket tier's memory,
// under its bound. The lanes never reach the store: the model tier
// persists everything built from them, so a later process reads the
// models and walks no lane.
var counterLaneTier = &memo.Tier[counterLaneKey, *CounterLane]{
	Name:      "counter-lane",
	Size:      (*CounterLane).Footprint,
	ShareWith: BucketTier,
}

// counterLaneFor returns ct's lane over one benchmark's annotated stream,
// walking it at most once per process while it stays resident. It also
// claims ct's histogram from the bucket tier, as a suite pass would, so the
// table's stream is built and persisted like every other geometry's; when
// both miss, the one walk fills lane and histogram together.
func counterLaneFor(cfg SuiteConfig, spec workload.Spec, predKey string, flat *trace.FlatView, ann *AnnotatedStream, ct *core.CounterTable) (*CounterLane, error) {
	key := bucketKeyFor(cfg, spec, predKey, ct)
	var walked *BucketStream // the histogram of this call's lane walk, if any
	cl, err := counterLaneTier.Get(counterLaneKey(key), nil, func() (*CounterLane, error) {
		lane := bitvec.NewDense(ct.BucketWidth(), flat.Len())
		walked = tallyWalk(flat, ann, ct, lane)
		return &CounterLane{lane: lane}, nil
	})
	if err != nil {
		return nil, err
	}
	_, err = BucketTier.Get(key, ann.agrees, func() (*BucketStream, error) {
		if walked != nil {
			return walked, nil
		}
		return tallyWalk(flat, ann, ct, nil), nil
	})
	return cl, err
}

// agrees reports whether a stored bucket stream was tallied from this
// annotated stream: the same branch and miss counts. Anything else is
// corruption, and the tier drops it.
func (a *AnnotatedStream) agrees(bs *BucketStream) bool {
	return bs.n == a.n && bs.misses == a.misses
}

// bucketArtifactKey is the canonical disk-store key for one bucket stream:
// codec version, full spec identity, resolved budget, predictor config,
// and table geometry. The "bucket-hist" marker names the histogram-only
// payload, so a store written when bucket records also carried their
// per-branch lane reads as cold here rather than failing to decode.
func bucketArtifactKey(spec workload.Spec, n uint64, predKey, geom string) string {
	return fmt.Sprintf("bucket-hist|v%d|%s|n=%d|pred=%s|geom=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey, geom)
}
