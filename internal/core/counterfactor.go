package core

import (
	"fmt"
	"math/bits"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

// Factorable support for the compressed-counter tables of §5.1. A counter
// table's per-branch bucket is the counter value read before training, and
// the counter state is a pure fold of the (index, mispredict) stream from a
// constant initial value — the saturating/resetting step consumes only the
// prediction-correctness bit, never anything a reduction or threshold can
// influence. So the counter variants factor exactly like the CIR tables:
// one lane build per geometry, every Max/threshold variant served from the
// shared histogram at O(1) marginal cost.

// counterStep monomorphizes the fill kernel over the two update policies:
// each policy is a zero-size type whose step inlines into the walk, so the
// per-branch cost carries no kind switch.
type counterStep interface {
	resettingStep | saturatingStep
	step(v, max uint8, inc uint64) uint8
}

// resettingStep is the §5.1 resetting policy: any misprediction zeroes the
// counter, a correct prediction counts up to the ceiling.
type resettingStep struct{}

// step is arithmetic, not control flow: v < max is the sign bit of
// v-max, and inc-1 is all ones after a correct prediction and zero after a
// miss, so the walk takes no host branch on the mispredict bit.
func (resettingStep) step(v, max uint8, inc uint64) uint8 {
	return (v + uint8((uint32(v)-uint32(max))>>31)) & uint8(inc-1)
}

// saturatingStep counts down on mispredictions with a floor of zero.
type saturatingStep struct{}

func (saturatingStep) step(v, max uint8, inc uint64) uint8 {
	if inc != 0 {
		if v > 0 {
			v--
		}
		return v
	}
	if v < max {
		v++
	}
	return v
}

// GeometryKey implements Factorable. The key covers every input the counter
// sequence depends on: update policy, index scheme, table size, saturation
// ceiling, initial value, and history length. There is no seed component —
// counter tables initialise to a constant, never randomly.
func (m *CounterTable) GeometryKey() string {
	return fmt.Sprintf("ctr|%s|%s|t%d|m%d|i%d|h%d",
		m.kind, m.scheme, m.tableBits, m.max, m.initVal, m.bhr.Width())
}

// BucketWidth implements Factorable: buckets are counter values 0..Max.
func (m *CounterTable) BucketWidth() uint { return uint(bits.Len8(m.max)) }

// FillBucketLane implements Factorable, mirroring CounterTable.BucketUpdate
// over a raw []uint8 table: read the indexed counter, emit it, apply the
// policy step, and advance the global histories. Like the CIR kernels the
// index scheme is hoisted to selector constants and lane words flush in
// batches; the policy dispatch is hoisted out of the walk entirely by
// monomorphization. Equivalence with the split Bucket/Update protocol is
// pinned by TestFillBucketLaneMatchesSplit and the tally==replay suite.
func (m *CounterTable) FillBucketLane(recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	m.FillBucketLaneResume(m.NewFactorState(), recs, miss, lane, counts)
}

// fillCounter is the counter walk, monomorphized per update policy. It
// continues from cs (table in place, histories written back at exit), so
// segmented walks reuse the same kernel.
func fillCounter[S counterStep](m *CounterTable, cs *counterState, recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	counts, bucketSel := countSlice(counts)
	var (
		st           S
		table        = cs.table
		sel          = selectorsFor(m.scheme, m.tableBits)
		max          = m.max
		bhrMask      = widthMask(m.bhr.Width())
		gcirMask     = widthMask(m.gcir.Width())
		width        = m.BucketWidth()
		perWord, buf = laneBuffer(lane)
		bhr, gcir    = cs.bhr, cs.gcir
		missWd       uint64
		cur          uint64 // lane word under construction
		curSh        uint   // bit offset of the next bucket within cur
		inWord       uint   // buckets packed into cur so far
	)
	for i := range recs {
		sh := uint(i) & 63
		if sh == 0 {
			missWd = miss[i>>6]
		}
		inc := missWd >> sh & 1
		idx := (recs[i].PC>>2&sel.pcMask ^ (bhr&sel.bhrSel)<<sel.bhrShift ^ gcir&sel.gcirSel) & sel.tblMask
		v := table[idx]
		b := uint64(v)
		if perWord != 0 {
			cur |= b << curSh
			curSh += width
			if inWord++; inWord == perWord {
				if buf = append(buf, cur); len(buf) == laneBufWords {
					lane.AppendWords(buf, laneBufWords*int(perWord))
					buf = buf[:0]
				}
				cur, curSh, inWord = 0, 0, 0
			}
		}
		ci := (b & bucketSel) << 1
		counts[ci]++
		counts[ci+1] += uint32(inc)
		table[idx] = st.step(v, max, inc)
		bhr = (bhr<<1 | bit(recs[i].Taken)) & bhrMask
		gcir = (gcir<<1 | inc) & gcirMask
	}
	flushLane(lane, buf, perWord, inWord, cur)
	cs.bhr, cs.gcir = bhr, gcir
}
