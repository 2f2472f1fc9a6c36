package sim

import (
	"encoding/binary"
	"fmt"

	"branchconf/internal/artifact"
	"branchconf/internal/memo"
	"branchconf/internal/workload"
)

// Checkpoint is the resumable walk state at a streaming segment boundary:
// the branch position the walk paused at, the cumulative mispredict count
// up to that position, and the opaque serialized state of the paused
// component — a predictor.Checkpointer's training state on the annotation
// side, a core.FactorState on the tally side. The engine validates Branch
// and Misses against the unit's own running totals before handing State to
// the component codec, so a checkpoint from a different boundary (or a
// stale format) can never be spliced into a walk.
type Checkpoint struct {
	Branch uint64
	Misses uint64
	State  []byte
}

// MarshalCheckpoint serializes a checkpoint: branch position, cumulative
// misses, and the length-prefixed state blob, all little-endian.
func MarshalCheckpoint(ck Checkpoint) []byte {
	out := make([]byte, 0, 24+len(ck.State))
	out = binary.LittleEndian.AppendUint64(out, ck.Branch)
	out = binary.LittleEndian.AppendUint64(out, ck.Misses)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ck.State)))
	return append(out, ck.State...)
}

// UnmarshalCheckpoint decodes and validates a MarshalCheckpoint payload.
// Like the other stream codecs it fails closed: truncation, a state length
// that disagrees with the payload, trailing bytes, and misses exceeding the
// branch position are all rejected. The inner State blob is validated by
// its owner on restore.
func UnmarshalCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < 24 {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint truncated at %d bytes", len(data))
	}
	ck := Checkpoint{
		Branch: binary.LittleEndian.Uint64(data),
		Misses: binary.LittleEndian.Uint64(data[8:]),
	}
	stateLen := binary.LittleEndian.Uint64(data[16:])
	rest := data[24:]
	if uint64(len(rest)) != stateLen {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint state length %d disagrees with %d payload bytes", stateLen, len(rest))
	}
	if ck.Misses > ck.Branch {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint misses %d exceed branch position %d", ck.Misses, ck.Branch)
	}
	ck.State = make([]byte, stateLen)
	copy(ck.State, rest)
	return ck, nil
}

// Segment-indexed artifact keys. A streaming unit's per-segment payloads
// reuse the monolithic key grammar with the segment size and index (or the
// boundary branch position, for checkpoints) appended, so a segmented run
// never aliases a monolithic artifact and two segment sizes never alias
// each other.

// annSegKey keys one segment's annotated stream.
func annSegKey(spec workload.Spec, n uint64, predKey string, segSize uint64, seg int) string {
	return fmt.Sprintf("ann|v%d|%s|n=%d|pred=%s|segsz=%d|seg=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, segSize, seg)
}

// bucketSegKey keys one segment's bucket stream for a geometry, with the
// histogram-only marker of bucketArtifactKey.
func bucketSegKey(spec workload.Spec, n uint64, predKey, geom string, segSize uint64, seg int) string {
	return fmt.Sprintf("bucket-hist|v%d|%s|n=%d|pred=%s|geom=%s|segsz=%d|seg=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, geom, segSize, seg)
}

// predCkptKey keys the predictor checkpoint at boundary branch position b.
func predCkptKey(spec workload.Spec, n uint64, predKey string, segSize, b uint64) string {
	return fmt.Sprintf("ckpt|v%d|%s|n=%d|pred=%s|segsz=%d|b=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, segSize, b)
}

// geomCkptKey keys a geometry's factor-walk checkpoint at boundary b.
func geomCkptKey(spec workload.Spec, n uint64, predKey, geom string, segSize, b uint64) string {
	return fmt.Sprintf("ckpt|v%d|%s|n=%d|pred=%s|geom=%s|segsz=%d|b=%d",
		artifact.FormatVersion, spec.CacheKey(), n, predKey, geom, segSize, b)
}

// segKey names one of a streaming unit's records: the unit (benchmark,
// budget, predictor config, segment size), the geometry for a geometry
// lane's records ("" for the predictor's), and the segment index — or, for
// a checkpoint, the boundary branch position.
type segKey struct {
	spec    workload.Spec
	n       uint64
	predKey string
	geom    string
	segSize uint64
	at      uint64
}

// with returns k for geometry geom at segment index or boundary at.
func (k segKey) with(geom string, at uint64) segKey {
	k.geom, k.at = geom, at
	return k
}

// The streaming engine's records use only the tiers' disk half: a walk
// consumes each segment once, so no memory holds them.
var (
	annSegTier = &memo.Tier[segKey, *AnnotatedStream]{
		Kind:   artifact.KindAnnotatedStream,
		Key:    func(k segKey) string { return annSegKey(k.spec, k.n, k.predKey, k.segSize, int(k.at)) },
		Encode: marshalAnnotatedStream,
		Decode: unmarshalAnnotatedStream,
	}
	bucketSegTier = &memo.Tier[segKey, *BucketStream]{
		Kind:   artifact.KindBucketStream,
		Key:    func(k segKey) string { return bucketSegKey(k.spec, k.n, k.predKey, k.geom, k.segSize, int(k.at)) },
		Encode: marshalBucketStream,
		Decode: unmarshalBucketStream,
	}
	// ckptTier holds boundary checkpoints: the predictor's, or a
	// geometry's factor state when the key names a geometry.
	ckptTier = &memo.Tier[segKey, Checkpoint]{
		Kind: artifact.KindCheckpoint,
		Key: func(k segKey) string {
			if k.geom == "" {
				return predCkptKey(k.spec, k.n, k.predKey, k.segSize, k.at)
			}
			return geomCkptKey(k.spec, k.n, k.predKey, k.geom, k.segSize, k.at)
		},
		Encode: MarshalCheckpoint,
		Decode: UnmarshalCheckpoint,
	}
)
