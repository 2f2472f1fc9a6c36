package sim

import (
	"fmt"
	"sync"

	"branchconf/internal/analysis"
	"branchconf/internal/artifact"
	"branchconf/internal/bitvec"
	"branchconf/internal/core"
	"branchconf/internal/memo"
	"branchconf/internal/trace"
	"branchconf/internal/workload"
)

// Stage 3 of the simulation engine: geometry-keyed bucket streams. For a
// factorable mechanism (core.Factorable — one- and two-level CIR tables)
// the per-branch bucket sequence is a pure function of the annotated
// (PC, Taken, mispredict) stream and the table geometry, never of the
// reduction function, threshold, or counter policy layered on top. So the
// engine replays each annotated stream through each geometry exactly once,
// into a BucketStream: a packed per-branch bucket lane plus the base
// histogram of pattern → {events, misses} tallies. Every variant over the
// same geometry is then served by sharing the immutable histogram at O(1)
// marginal cost — no O(branches) replay — and the build itself runs a monomorphic
// raw-table kernel (core.Factorable.FillBucketLane) that is several times
// faster per branch than the interface-dispatched stage-2 replay.
//
// The factoring is exact: the lane records precisely the buckets the
// stage-2 replay would feed its accumulator, so the histogram has
// identical integer counts and every downstream artefact is byte-identical
// (asserted against the straight-line Run by TestSuiteMatchesRunOracle).

// BucketStream is the stage-3 artifact for one (benchmark, predictor
// config, geometry) triple: the packed per-branch bucket lane and the base
// histogram tallied from it. A fully built stream is immutable and safe
// for concurrent use.
type BucketStream struct {
	lane   *bitvec.Dense
	stats  analysis.BucketStats // base histogram: bucket → {events, misses}
	n      int
	misses uint64
}

// Len returns the number of branches in the stream.
func (b *BucketStream) Len() int { return b.n }

// Bucket returns the i-th per-branch bucket (test and inspection access;
// bulk consumers use the histogram).
func (b *BucketStream) Bucket(i int) uint64 { return b.lane.At(i) }

// Below returns the packed bit lane of branches whose bucket is below
// threshold — bit i of word i/64, least significant first — which is the
// low-confidence lane of a counter estimator with that threshold
// (core.CounterReducer).
func (b *BucketStream) Below(threshold uint64) []uint64 {
	out := make([]uint64, (b.n+63)/64)
	var (
		words   = b.lane.Words()
		width   = b.lane.Width()
		perWord = int(b.lane.PerWord())
		mask    = uint64(1)<<width - 1
	)
	if width == 64 {
		mask = ^uint64(0)
	}
	for i, wi := 0, 0; i < b.n; wi++ {
		w := words[wi]
		for k := 0; k < perWord && i < b.n; k, i = k+1, i+1 {
			if w&mask < threshold {
				out[i>>6] |= 1 << (uint(i) & 63)
			}
			w >>= width
		}
	}
	return out
}

// Stats returns the base histogram for use as a Result's bucket
// statistics. The map is shared by every variant served from this stream
// (and by the stream cache) and must be treated as read-only — which every
// consumer already is: Result.Buckets only ever feeds the read-only
// analysis composites and the Derive* partitions. Sharing makes the
// per-variant marginal cost O(1); a caller that genuinely needs a private
// mutable copy takes Stats().Clone().
func (b *BucketStream) Stats() analysis.BucketStats { return b.stats }

// Footprint returns the stream's payload bytes: the packed lane plus the
// base histogram's tally storage.
func (b *BucketStream) Footprint() uint64 {
	// Each histogram entry costs one Tally plus a map slot; 32 bytes is the
	// amortised cost on 64-bit platforms and keeps the bound honest.
	return b.lane.Bytes() + uint64(len(b.stats))*32
}

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

// countsToStats converts a fused histogram into the map form the analysis
// layer consumes, walking buckets in ascending order and backing all
// tallies with one contiguous block. The integer counts are exactly what
// the stage-2 replay accumulator would produce.
func countsToStats(counts []uint32) analysis.BucketStats {
	occupied := 0
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			occupied++
		}
	}
	bs := make(analysis.BucketStats, occupied)
	block := make([]analysis.Tally, 0, occupied)
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			block = append(block, analysis.Tally{Events: uint64(counts[b]), Misses: uint64(counts[b+1])})
			bs[uint64(b>>1)] = &block[len(block)-1]
		}
	}
	return bs
}

// countsToStats64 is countsToStats for the streaming engine's per-geometry
// running histogram, which accumulates across segments in uint64 so no
// horizon can overflow it.
func countsToStats64(counts []uint64) analysis.BucketStats {
	occupied := 0
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			occupied++
		}
	}
	bs := make(analysis.BucketStats, occupied)
	block := make([]analysis.Tally, 0, occupied)
	for b := 0; b < len(counts); b += 2 {
		if counts[b] != 0 {
			block = append(block, analysis.Tally{Events: counts[b], Misses: counts[b+1]})
			bs[uint64(b>>1)] = &block[len(block)-1]
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
// (SetTallyCacheDefaultBound).
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
// bucket-stream tier. 0 removes the bound.
func SetTallyCacheDefaultBound(bytes uint64) { BucketTier.SetBound(bytes) }

// bucketStreamFor returns the memoized bucket stream for one (benchmark,
// predictor config, geometry) triple, building lane and histogram on a
// miss in memory and on disk. The caller supplies the benchmark's (flat
// view, annotated stream) pair it already holds, so the bucket claim never
// touches the annotated tier. Concurrent claimants of the same key share
// one build. fm is only read (FillBucketLane replays a private copy of its
// initial state), so chunk-local mechanism instances are safe to pass from
// parallel goroutines.
func bucketStreamFor(cfg SuiteConfig, spec workload.Spec, predKey string, flat *trace.FlatView, ann *AnnotatedStream, fm core.Factorable) (*BucketStream, error) {
	n := cfg.Branches
	if n == 0 {
		n = spec.DefaultBranches
	}
	key := bucketKey{spec: spec, n: n, predKey: predKey, geom: fm.GeometryKey()}
	return BucketTier.Get(key, ann.agrees, func() (*BucketStream, error) {
		width := fm.BucketWidth()
		lane := bitvec.NewDense(width, flat.Len())
		var stats analysis.BucketStats
		if width <= fusedTallyLimit {
			counts := countsPool.Get().([]uint32)
			used := counts[:2<<width]
			clear(used)
			fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, used)
			stats = countsToStats(used)
			countsPool.Put(counts)
		} else {
			fm.FillBucketLane(flat.Records(), ann.MissWords(), lane, nil)
			stats = tallyLane(lane, ann.MissWords(), ann.n)
		}
		return &BucketStream{
			lane:   lane,
			n:      ann.n,
			misses: ann.misses,
			stats:  stats,
		}, nil
	})
}

// agrees reports whether a stored bucket stream was tallied from this
// annotated stream: the same branch and miss counts. Anything else is
// corruption, and the tier drops it.
func (a *AnnotatedStream) agrees(bs *BucketStream) bool {
	return bs.n == a.n && bs.misses == a.misses
}

// bucketArtifactKey is the canonical disk-store key for one bucket stream:
// codec version, full spec identity, resolved budget, predictor config,
// and table geometry.
func bucketArtifactKey(spec workload.Spec, n uint64, predKey, geom string) string {
	return fmt.Sprintf("bucket|v%d|%s|n=%d|pred=%s|geom=%s", artifact.FormatVersion, spec.CacheKey(), n, predKey, geom)
}
