package sim

import (
	"math/bits"
	"sync"

	"branchconf/internal/analysis"
)

// denseBuckets bounds the dense fast path of bucketAccum. Counter values
// (≤ CounterMax), ones counts, and CIR patterns up to 16 bits land in a
// flat array — one indexed add per branch instead of a map probe, which
// profiling shows dominating the simulation loop otherwise. Wider CIR
// patterns and static branch addresses spill to the map.
const denseBuckets = 1 << 16

// bucketAccum accumulates per-bucket tallies with a dense fast path. It
// produces exactly the integer counts analysis.TallyMap.Add would, so
// swapping it into a simulation loop cannot perturb any artefact.
type bucketAccum struct {
	dense  *denseState // lazily taken from densePool on the first small bucket
	sparse analysis.TallyMap
}

func newBucketAccum() *bucketAccum {
	return &bucketAccum{sparse: make(analysis.TallyMap)}
}

// denseState is one pooled dense accumulator: the 1 MiB tally array plus a
// bitmap of its occupied buckets, recycled together so stats only ever
// reads (and re-zeroes) the slots a pass actually occupied instead of all
// 2^16, and emits them in ascending order.
type denseState struct {
	tallies []analysis.Tally
	touched [denseBuckets / 64]uint64
}

// densePool recycles the dense arrays between passes. A report run makes
// hundreds of passes; without the pool each one allocates and zeroes its
// own array, and the churn shows up as both GC time and memclr.
var densePool = sync.Pool{
	New: func() any {
		return &denseState{tallies: make([]analysis.Tally, denseBuckets)}
	},
}

func (a *bucketAccum) add(bucket uint64, incorrect bool) {
	if bucket < denseBuckets {
		if a.dense == nil {
			a.dense = densePool.Get().(*denseState)
		}
		t := &a.dense.tallies[bucket]
		if t.Events == 0 {
			a.dense.touched[bucket>>6] |= 1 << (bucket & 63)
		}
		t.Events++
		if incorrect {
			t.Misses++
		}
		return
	}
	a.sparse.Add(bucket, incorrect)
}

// stats returns the accumulated histogram in ascending bucket order: the
// occupied dense buckets, then the sparse ones, which all lie above them.
// The accumulator must not be used afterwards.
func (a *bucketAccum) stats() analysis.BucketStats {
	d := a.dense
	occupied := 0
	if d != nil {
		for _, w := range d.touched {
			occupied += bits.OnesCount64(w)
		}
	}
	bs := make(analysis.BucketStats, 0, occupied+len(a.sparse))
	if d != nil {
		for wi, w := range d.touched {
			for ; w != 0; w &= w - 1 {
				b := wi<<6 | bits.TrailingZeros64(w)
				bs = append(bs, analysis.BucketTally{Bucket: uint64(b), Tally: d.tallies[b]})
				d.tallies[b] = analysis.Tally{}
			}
			d.touched[wi] = 0
		}
		densePool.Put(d)
	}
	if len(a.sparse) > 0 {
		bs = append(bs, a.sparse.Stats()...)
	}
	a.dense, a.sparse = nil, nil
	return bs
}
