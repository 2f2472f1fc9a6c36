package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"branchconf/internal/analysis"
	"branchconf/internal/bitvec"
)

// Persistence codecs for the engine's stage-1 and stage-2 artifacts, the
// payloads behind artifact.KindAnnotatedStream and
// artifact.KindBucketStream. Layouts are the in-memory representations,
// length-prefixed; histograms are serialized bucket-sorted so equal streams
// always encode to equal bytes (content-addressed stores deduplicate on
// payload identity, and the warm-start tests byte-compare whole runs).
// Integrity against corruption is the artifact record checksum's job; the
// decoders still validate structure exhaustively — lane shapes against the
// branch count, mispredict popcounts, histogram totals — so a payload
// either revives the exact stream that was stored or fails to decode. A
// decode failure is never fatal: the caller drops the record and rebuilds
// (the same fail-soft contract the store applies to disk faults), so these
// codecs are exercised under injected I/O faults by the fault matrix in
// cmd/paperrepro without any failure path of their own.

// appendUint64s appends a length-prefixed little-endian word slice.
func appendUint64s(out []byte, words []uint64) []byte {
	out = binary.LittleEndian.AppendUint64(out, uint64(len(words)))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// readUint64s consumes a length-prefixed word slice, returning the rest.
func readUint64s(rd []byte, what string) ([]uint64, []byte, error) {
	if len(rd) < 8 {
		return nil, nil, fmt.Errorf("sim: payload truncated before %s length", what)
	}
	count := binary.LittleEndian.Uint64(rd)
	rd = rd[8:]
	if count > uint64(len(rd))/8 {
		return nil, nil, fmt.Errorf("sim: payload %s length %d exceeds remaining %d bytes", what, count, len(rd))
	}
	words := make([]uint64, count)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(rd[8*i:])
	}
	return words, rd[8*count:], nil
}

// marshalAnnotatedStream encodes one annotated stream:
//
//	u64 branch count n
//	u64 misprediction count
//	u8  state-lane width (0 = no state lane)
//	u64 mispredict word count + words
//	u64 state word count + words (present only with a state lane)
func marshalAnnotatedStream(a *AnnotatedStream) []byte {
	var stateWidth uint8
	if a.state != nil {
		stateWidth = uint8(a.state.Width())
	}
	out := make([]byte, 0, 8+8+1+8+a.Footprint()+8)
	out = binary.LittleEndian.AppendUint64(out, uint64(a.n))
	out = binary.LittleEndian.AppendUint64(out, a.misses)
	out = append(out, stateWidth)
	out = appendUint64s(out, a.miss.Words())
	if a.state != nil {
		out = appendUint64s(out, a.state.Words())
	}
	return out
}

// unmarshalAnnotatedStream decodes a marshalAnnotatedStream payload.
func unmarshalAnnotatedStream(payload []byte) (*AnnotatedStream, error) {
	rd := payload
	if len(rd) < 17 {
		return nil, fmt.Errorf("sim: annotated payload truncated at header")
	}
	n := binary.LittleEndian.Uint64(rd)
	misses := binary.LittleEndian.Uint64(rd[8:])
	stateWidth := rd[16]
	rd = rd[17:]
	if n > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("sim: annotated payload branch count %d overflows int", n)
	}
	missWords, rd, err := readUint64s(rd, "mispredict lane")
	if err != nil {
		return nil, err
	}
	miss, err := bitvec.MakeVector(missWords, int(n))
	if err != nil {
		return nil, fmt.Errorf("sim: annotated payload: %w", err)
	}
	var pop uint64
	for _, w := range missWords {
		pop += uint64(bits.OnesCount64(w))
	}
	if pop != misses {
		return nil, fmt.Errorf("sim: annotated payload claims %d misses, lane holds %d", misses, pop)
	}
	a := &AnnotatedStream{miss: miss, n: int(n), misses: misses}
	if stateWidth != 0 {
		stateWords, rest, err := readUint64s(rd, "state lane")
		if err != nil {
			return nil, err
		}
		rd = rest
		a.state, err = bitvec.DenseFromWords(uint(stateWidth), stateWords, int(n))
		if err != nil {
			return nil, fmt.Errorf("sim: annotated payload: %w", err)
		}
	}
	if len(rd) != 0 {
		return nil, fmt.Errorf("sim: annotated payload has %d trailing bytes", len(rd))
	}
	return a, nil
}

// marshalBucketStream encodes one bucket stream:
//
//	u64 branch count n
//	u64 misprediction count
//	u64 histogram entry count, then (bucket, events, misses) u64 triples in
//	    ascending bucket order
func marshalBucketStream(b *BucketStream) []byte {
	out := make([]byte, 0, 24+24*len(b.stats))
	out = binary.LittleEndian.AppendUint64(out, uint64(b.n))
	out = binary.LittleEndian.AppendUint64(out, b.misses)
	buckets := make([]uint64, 0, len(b.stats))
	for bucket := range b.stats {
		buckets = append(buckets, bucket)
	}
	slices.Sort(buckets)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(buckets)))
	for _, bucket := range buckets {
		t := b.stats[bucket]
		out = binary.LittleEndian.AppendUint64(out, bucket)
		out = binary.LittleEndian.AppendUint64(out, t.Events)
		out = binary.LittleEndian.AppendUint64(out, t.Misses)
	}
	return out
}

// unmarshalBucketStream decodes a marshalBucketStream payload. The decoded
// histogram's totals must tie out against the branch and miss counts —
// every branch lands in exactly one bucket — backed, like Clone, by one
// contiguous tally block.
func unmarshalBucketStream(payload []byte) (*BucketStream, error) {
	rd := payload
	if len(rd) < 24 {
		return nil, fmt.Errorf("sim: bucket payload truncated at header")
	}
	n := binary.LittleEndian.Uint64(rd)
	misses := binary.LittleEndian.Uint64(rd[8:])
	count := binary.LittleEndian.Uint64(rd[16:])
	rd = rd[24:]
	if n > uint64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("sim: bucket payload branch count %d overflows int", n)
	}
	if count > uint64(len(rd))/24 {
		return nil, fmt.Errorf("sim: bucket payload histogram count %d exceeds remaining %d bytes", count, len(rd))
	}
	stats := make(analysis.BucketStats, count)
	block := make([]analysis.Tally, count)
	var events, missTotal uint64
	var prev uint64
	for i := uint64(0); i < count; i++ {
		bucket := binary.LittleEndian.Uint64(rd)
		block[i] = analysis.Tally{
			Events: binary.LittleEndian.Uint64(rd[8:]),
			Misses: binary.LittleEndian.Uint64(rd[16:]),
		}
		rd = rd[24:]
		if i > 0 && bucket <= prev {
			return nil, fmt.Errorf("sim: bucket payload histogram not in ascending bucket order")
		}
		prev = bucket
		if block[i].Misses > block[i].Events {
			return nil, fmt.Errorf("sim: bucket payload bucket %d has %d misses for %d events", bucket, block[i].Misses, block[i].Events)
		}
		stats[bucket] = &block[i]
		events += block[i].Events
		missTotal += block[i].Misses
	}
	if len(rd) != 0 {
		return nil, fmt.Errorf("sim: bucket payload has %d trailing bytes", len(rd))
	}
	if events != n || missTotal != misses {
		return nil, fmt.Errorf("sim: bucket payload histogram totals (%d events, %d misses) disagree with stream (%d, %d)", events, missTotal, n, misses)
	}
	return &BucketStream{stats: stats, n: int(n), misses: misses}, nil
}
