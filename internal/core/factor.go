package core

import (
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
	"branchconf/internal/xrand"
)

// Factorable marks a mechanism whose per-branch bucket sequence is a pure
// function of the branch stream — (PC, Taken) per branch plus the
// prediction-correctness bit — and the mechanism's fixed table geometry.
// The sequence is independent of any reduction function, threshold, or
// other downstream consumer, so the stage-3 tally engine (internal/sim)
// can replay a stream through a geometry exactly once, count the bucket
// sequence into a histogram, and serve every variant sharing the geometry
// from it.
//
// CIR-table mechanisms qualify: the table contents are shift registers of
// the correctness stream, addressed by hashes of PC and the global
// histories, none of which a reduction function can perturb. Counter-table
// mechanisms qualify on the same grounds: saturating and resetting counters
// fold the stream nonlinearly, but the fold consumes only the per-branch
// correctness bit from a constant initial value, so the counter read is
// still a pure function of (stream, geometry) — see counterfactor.go. Only
// predictor-state-coupled mechanisms (core.StateCoupled) stay on the
// stage-2 replay path.
type Factorable interface {
	Mechanism
	// GeometryKey uniquely identifies the bucket-determining configuration:
	// two mechanisms with equal keys must emit identical bucket sequences
	// over any stream. It keys the process-wide bucket-stream cache.
	GeometryKey() string
	// BucketWidth returns the lane width in bits sufficient to hold any
	// bucket the mechanism can emit.
	BucketWidth() uint
	// FillBucketLane replays the branch stream through a private copy of
	// the mechanism's initial state, appending one bucket per branch to
	// lane. miss holds the packed per-branch mispredict bits (bit i of
	// miss[i/64]). The receiver is not mutated and the walk must emit
	// exactly the bucket sequence Bucket/BucketUpdate would observe over
	// the same stream. A nil lane makes a histogram-only walk: the
	// buckets reach counts and nothing else.
	//
	// counts, when non-nil, fuses the base-histogram tally into the walk:
	// for each branch landing in bucket b, counts[2b] is incremented and
	// counts[2b+1] is incremented when the branch mispredicted. The caller
	// must size counts to 2<<BucketWidth() entries (so it only passes
	// counts for widths where a dense histogram is practical) and zero it
	// beforehand. A nil counts skips the tally: the bucket value is already
	// in a register and the table's cache miss already paid, so counting
	// here costs two adjacent increments where a separate lane pass would
	// pay a second full walk.
	FillBucketLane(recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32)
}

// widthMask returns the low-width-bits mask for shift-register emulation in
// the lane kernels (the bitvec mask helper is package-private).
func widthMask(width uint) uint64 {
	if width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// missBit extracts the packed mispredict bit for branch i.
func missBit(miss []uint64, i int) uint64 {
	return miss[i>>6] >> (uint(i) & 63) & 1
}

// indexSelectors reduces schemeIndex's per-branch switch to straight-line
// arithmetic: every index scheme — including the concatenation, whose
// fields occupy disjoint bit ranges so xor and or coincide — is
//
//	((pc>>2)&pcMask ^ (bhr&bhrSel)<<bhrShift ^ gcir&gcirSel) & tblMask
//
// for constants fixed by (scheme, tableBits). Hoisting the dispatch out of
// the walk is worth ~3 ns/branch on the build kernels.
type indexSelectors struct {
	pcMask   uint64
	bhrSel   uint64
	bhrShift uint
	gcirSel  uint64
	tblMask  uint64
}

func selectorsFor(scheme IndexScheme, tableBits uint) indexSelectors {
	s := indexSelectors{tblMask: widthMask(tableBits)}
	switch scheme {
	case IndexPC:
		s.pcMask = s.tblMask
	case IndexBHR:
		s.bhrSel = ^uint64(0)
	case IndexPCxorBHR:
		s.pcMask = s.tblMask
		s.bhrSel = ^uint64(0)
	case IndexGCIR:
		s.gcirSel = ^uint64(0)
	case IndexPCxorGCIR:
		s.pcMask = s.tblMask
		s.gcirSel = ^uint64(0)
	case IndexPCconcatBHR:
		half := tableBits / 2
		s.pcMask = widthMask(half)
		s.bhrSel = widthMask(tableBits - half)
		s.bhrShift = half
	default:
		panic(fmt.Sprintf("core: unknown index scheme %d", int(scheme)))
	}
	return s
}

// laneBufWords sizes the kernels' local word buffer: packed lane words
// collect here (a bounds-checked slice append, inlined) and flush to the
// Dense in 4 KB batches, so the non-inlinable AppendWord call is paid once
// per few thousand branches instead of once per word.
const laneBufWords = 512

// bit returns b as 0 or 1. The compiler lowers it to a zero-extending
// byte load, so the kernels shift a data-dependent branch direction into
// the BHR without a host branch of their own to mispredict.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// laneBuffer returns a kernel's packing factor and local word buffer, or
// 0 and nil for a histogram-only walk (nil lane), which then packs
// nothing.
func laneBuffer(lane *bitvec.Dense) (perWord uint, buf []uint64) {
	if lane == nil {
		return 0, nil
	}
	return lane.PerWord(), make([]uint64, 0, laneBufWords)
}

// flushLane drains the word buffer plus any partial word into the lane.
// Called once per batch and once at end-of-stream — never per branch.
// A histogram-only walk has no lane to drain.
func flushLane(lane *bitvec.Dense, buf []uint64, perWord, inWord uint, cur uint64) []uint64 {
	if lane == nil {
		return buf
	}
	if inWord > 0 {
		buf = append(buf, cur)
		lane.AppendWords(buf, (len(buf)-1)*int(perWord)+int(inWord))
	} else if len(buf) > 0 {
		lane.AppendWords(buf, len(buf)*int(perWord))
	}
	return buf[:0]
}

// countSlice returns the histogram slice and bucket selector for a fused
// walk: with a nil counts every tally lands in a two-element dummy (bucket
// masked to zero), keeping the inner loop branch-free either way.
func countSlice(counts []uint32) ([]uint32, uint64) {
	if counts == nil {
		return make([]uint32, 2), 0
	}
	return counts, ^uint64(0)
}

// tableWord parameterizes the lane kernels over the CIR table's element
// width: registers up to 16 bits — every paper geometry — pack into a
// uint16 table a quarter the footprint of a []uint64, keeping the randomly
// indexed table L2-resident next to the fused histogram.
type tableWord interface {
	uint16 | uint64
}

// initTable fills a CIR table with its configured initial contents. Only
// InitRandom consumes the RNG (one draw per entry, in index order — the
// stream Reset replays); the other policies fill a constant without paying
// a call per entry.
func initTable[T tableWord](table []T, p InitPolicy, width uint, rng *xrand.RNG) {
	if p == InitRandom {
		for i := range table {
			table[i] = T(p.initValue(width, rng))
		}
		return
	}
	v := T(p.initValue(width, nil))
	for i := range table {
		table[i] = v
	}
}

// GeometryKey implements Factorable. The key covers every input the bucket
// sequence depends on: index scheme, table and CIR geometry, history
// length, and the initial table contents (policy plus seed).
func (m *OneLevel) GeometryKey() string {
	return fmt.Sprintf("1lev|%s|t%d|c%d|h%d|%s|s%d",
		m.scheme, m.tableBits, m.cirBits, m.bhr.Width(), m.init, m.initSeed)
}

// BucketWidth implements Factorable: buckets are cirBits-wide CIR patterns.
func (m *OneLevel) BucketWidth() uint { return m.cirBits }

// FillBucketLane implements Factorable. The walk is the monomorphic twin of
// BucketUpdate over a raw uint64 table: read the indexed CIR, emit it,
// shift in the outcome, and advance the global histories — no interface
// dispatch, no per-entry register structs, no record copies, no per-branch
// scheme switch (selectorsFor), and lane words flushed whole instead of one
// Append per branch. Equivalence with the split Bucket/Update protocol is
// pinned by TestFillBucketLane*. The whole-stream walk is a single resumed
// segment from the initial state.
func (m *OneLevel) FillBucketLane(recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	m.FillBucketLaneResume(m.NewFactorState(), recs, miss, lane, counts)
}

// fillOneLevel is the one-level walk, monomorphized per table element
// width. It continues from st — table in place, histories loaded into
// locals at entry and stored back at exit — so a segment boundary costs two
// stores, not a kernel change.
func fillOneLevel[T tableWord](m *OneLevel, st *oneLevelState[T], recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	counts, bucketSel := countSlice(counts)
	var (
		table        = st.table
		sel          = selectorsFor(m.scheme, m.tableBits)
		cirMask      = widthMask(m.cirBits)
		bhrMask      = widthMask(m.bhr.Width())
		gcirMask     = widthMask(m.gcir.Width())
		width        = m.cirBits
		perWord, buf = laneBuffer(lane)
		bhr, gcir    = st.bhr, st.gcir
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
		b := uint64(table[idx])
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
		table[idx] = T((b<<1 | inc) & cirMask)
		bhr = (bhr<<1 | bit(recs[i].Taken)) & bhrMask
		gcir = (gcir<<1 | inc) & gcirMask
	}
	flushLane(lane, buf, perWord, inWord, cur)
	st.bhr, st.gcir = bhr, gcir
}

// GeometryKey implements Factorable for the two-level mechanism; both
// levels' geometry and the shared initialisation stream feed the key.
func (m *TwoLevel) GeometryKey() string {
	return fmt.Sprintf("2lev|%s|%s|t%d|c%d|c%d|h%d|%s|s%d",
		m.scheme1, m.scheme2, m.l1Bits, m.l1CIRBits, m.l2CIRBits,
		m.bhr.Width(), m.init, m.initSeed)
}

// BucketWidth implements Factorable: buckets are second-level CIR patterns.
func (m *TwoLevel) BucketWidth() uint { return m.l2CIRBits }

// FillBucketLane implements Factorable, mirroring TwoLevel.BucketUpdate:
// the second-level index is computed from the first-level CIR before
// either level trains, and both tables are initialised from one RNG stream
// in Reset order (first level, then second). Like the one-level kernel,
// both index schemes are hoisted to selector constants — the second index
// is (cir ^ pc-part ^ bhr-part) & mask for every L2 scheme.
func (m *TwoLevel) FillBucketLane(recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	m.FillBucketLaneResume(m.NewFactorState(), recs, miss, lane, counts)
}

// fillTwoLevel is the two-level walk, monomorphized per table element
// width. Like fillOneLevel it continues from st and stores the histories
// back at exit.
func fillTwoLevel[T tableWord](m *TwoLevel, st *twoLevelState[T], recs []trace.Record, miss []uint64, lane *bitvec.Dense, counts []uint32) {
	counts, bucketSel := countSlice(counts)
	var pcSel2, bhrSel2 uint64
	switch m.scheme2 {
	case L2CIR:
	case L2CIRxorPC:
		pcSel2 = widthMask(m.l1CIRBits)
	case L2CIRxorBHR:
		bhrSel2 = ^uint64(0)
	case L2CIRxorPCxorBHR:
		pcSel2 = widthMask(m.l1CIRBits)
		bhrSel2 = ^uint64(0)
	default:
		panic(fmt.Sprintf("core: unknown second index %d", int(m.scheme2)))
	}
	var (
		t1, t2       = st.t1, st.t2
		sel          = selectorsFor(m.scheme1, m.l1Bits)
		l1Mask       = widthMask(m.l1CIRBits)
		l2Mask       = widthMask(m.l2CIRBits)
		idx2Mask     = widthMask(m.l1CIRBits)
		bhrMask      = widthMask(m.bhr.Width())
		gcirMask     = widthMask(m.gcir.Width())
		width        = m.l2CIRBits
		perWord, buf = laneBuffer(lane)
		bhr, gcir    = st.bhr, st.gcir
		missWd       uint64
		cur          uint64
		curSh        uint
		inWord       uint
	)
	for i := range recs {
		sh := uint(i) & 63
		if sh == 0 {
			missWd = miss[i>>6]
		}
		inc := missWd >> sh & 1
		pc := recs[i].PC
		i1 := (pc>>2&sel.pcMask ^ (bhr&sel.bhrSel)<<sel.bhrShift ^ gcir&sel.gcirSel) & sel.tblMask
		cir := uint64(t1[i1])
		i2 := (cir ^ pc>>2&pcSel2 ^ bhr&bhrSel2) & idx2Mask
		b := uint64(t2[i2])
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
		t1[i1] = T((cir<<1 | inc) & l1Mask)
		t2[i2] = T((b<<1 | inc) & l2Mask)
		bhr = (bhr<<1 | bit(recs[i].Taken)) & bhrMask
		gcir = (gcir<<1 | inc) & gcirMask
	}
	flushLane(lane, buf, perWord, inWord, cur)
	st.bhr, st.gcir = bhr, gcir
}
