package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// HashRun returns the canonical content hash of one run's bucket tallies:
// the bucket count, then the (bucket, events, misses) triples in the
// histogram's ascending bucket order. Two runs hash equal iff they carry identical integer
// statistics. It is one run's share of HashRuns; callers that hash the
// same immutable tallies repeatedly memoize it per run (sim.Result.Digest)
// and combine the digests with CombineRunHashes.
func HashRun(bs BucketStats) [sha256.Size]byte {
	var rh runHasher
	return rh.sum(bs)
}

// CombineRunHashes folds per-run digests (HashRun) into the hash of the
// run set: the run count, then each digest in run order, so run
// boundaries and empty runs stay unambiguous. Combining a handful of
// digests costs about a microsecond.
func CombineRunHashes(digests [][sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(digests)))
	h.Write(word[:])
	for i := range digests {
		h.Write(digests[i][:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// HashRuns returns the canonical content hash of a set of per-run bucket
// tallies: CombineRunHashes over each run's HashRun, so a key combined
// from memoized per-run digests equals HashRuns by construction. The hash
// keys any artefact that is a pure function of the tallies — notably the
// sorted confidence curves the experiment layer persists. Hashing is one
// ordered walk per run, O(buckets), whose cost is SHA-256 over 24 bytes a
// bucket. Callers that key the same tallies repeatedly combine memoized
// per-run digests instead, which costs O(runs).
func HashRuns(runs []BucketStats) [sha256.Size]byte {
	var rh runHasher // scratch shared across runs
	digests := make([][sha256.Size]byte, len(runs))
	for i, bs := range runs {
		digests[i] = rh.sum(bs)
	}
	return CombineRunHashes(digests)
}

// hashChunk is the size of the triple buffer that amortises the hash-write
// call overhead.
const hashChunk = 24 * 1024

// runHasher holds the scratch one HashRun needs, reused across the runs
// of a HashRuns call.
type runHasher struct {
	h   hash.Hash
	buf []byte
}

// sum returns HashRun(bs), reusing rh's hash state and buffers.
func (rh *runHasher) sum(bs BucketStats) [sha256.Size]byte {
	if rh.h == nil {
		rh.h = sha256.New()
		rh.buf = make([]byte, 0, min(hashChunk, 24*len(bs)))
	} else {
		rh.h.Reset()
	}
	h := rh.h
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(bs)))
	h.Write(word[:])
	buf := rh.buf[:0]
	for _, t := range bs {
		buf = binary.LittleEndian.AppendUint64(buf, t.Bucket)
		buf = binary.LittleEndian.AppendUint64(buf, t.Events)
		buf = binary.LittleEndian.AppendUint64(buf, t.Misses)
		if len(buf) >= hashChunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	rh.buf = buf
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
