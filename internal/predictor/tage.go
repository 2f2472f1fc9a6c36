package predictor

import (
	"encoding/binary"
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

func init() {
	Register("tage", func() Predictor { return NewTage(12, 10, 9, []uint{5, 11, 25, 55}) })
}

// Tage is a TAGE-style tagged-geometric-history predictor: a bimodal base
// table backed by tagged banks indexed with geometrically increasing
// slices of global history. The longest-history bank whose tag matches
// provides the prediction; a signed counter per tagged entry both decides
// the direction and carries a *native* confidence estimate — the
// counter's distance from its weak midpoint — which is what the realtrace
// experiment compares against the paper's CIR tables.
//
// The implementation is deterministic end to end: allocation on a
// mispredict takes the first longer bank whose useful counter is zero
// (decrementing all candidates when none is free) instead of the
// literature's randomized choice, so equal traces produce equal tables,
// annotations, and checkpoints.
type Tage struct {
	base     []bitvec.SatCounter // 2-bit bimodal fallback
	banks    []tageBank
	bhr      bitvec.BHR
	baseBits uint
	bankBits uint
	tagBits  uint

	// Lookup memo for the predict-then-annotate-then-update protocol:
	// provider selection depends only on PC and history, which advance
	// only in Update.
	cachePC uint64
	cacheOK bool
	cacheLk tageLookup
}

// tageBank is one tagged table with its history length.
type tageBank struct {
	length uint // history bits folded into this bank's index and tag
	tags   []uint16
	ctrs   []bitvec.SatCounter // 3-bit signed-style counters, taken when >= 4
	useful []bitvec.SatCounter // 2-bit usefulness counters
}

// tageLookup is one branch's resolved provider chain.
type tageLookup struct {
	idx      []uint64 // per-bank indices
	tags     []uint16 // per-bank tags
	provider int      // bank index of the provider, -1 for base
	altpred  bool     // prediction of the next-longest match (or base)
	pred     bool
	baseIdx  uint64
}

// NewTage returns a TAGE predictor with a 2^baseBits bimodal base,
// len(lengths) tagged banks of 2^bankBits entries carrying tagBits-bit
// tags, and the given (strictly increasing, <= 64) history lengths. It
// panics on out-of-range geometry, like the other constructors.
func NewTage(baseBits, bankBits, tagBits uint, lengths []uint) *Tage {
	if baseBits == 0 || baseBits > 30 {
		panic(fmt.Sprintf("predictor: tage base bits %d out of range [1,30]", baseBits))
	}
	if bankBits == 0 || bankBits > 30 {
		panic(fmt.Sprintf("predictor: tage bank bits %d out of range [1,30]", bankBits))
	}
	if tagBits == 0 || tagBits > 16 {
		panic(fmt.Sprintf("predictor: tage tag bits %d out of range [1,16]", tagBits))
	}
	if len(lengths) == 0 || len(lengths) > 15 {
		panic(fmt.Sprintf("predictor: tage wants 1..15 banks, got %d", len(lengths)))
	}
	prev := uint(0)
	for _, l := range lengths {
		if l == 0 || l > bitvec.MaxShiftWidth {
			panic(fmt.Sprintf("predictor: tage history length %d out of range [1,64]", l))
		}
		if l <= prev {
			panic(fmt.Sprintf("predictor: tage history lengths must strictly increase, got %v", lengths))
		}
		prev = l
	}
	t := &Tage{
		base:     make([]bitvec.SatCounter, 1<<baseBits),
		banks:    make([]tageBank, len(lengths)),
		baseBits: baseBits,
		bankBits: bankBits,
		tagBits:  tagBits,
	}
	for i, l := range lengths {
		t.banks[i] = tageBank{
			length: l,
			tags:   make([]uint16, 1<<bankBits),
			ctrs:   make([]bitvec.SatCounter, 1<<bankBits),
			useful: make([]bitvec.SatCounter, 1<<bankBits),
		}
	}
	t.Reset()
	return t
}

// foldBits XOR-folds the low `from` bits of v into `to` bits.
func foldBits(v uint64, from, to uint) uint64 {
	if from < 64 {
		v &= uint64(1)<<from - 1
	}
	var out uint64
	for ; v != 0; v >>= to {
		out ^= v & (uint64(1)<<to - 1)
	}
	return out
}

// lookup resolves indices, tags, and the provider chain for pc,
// memoizing until the next Update.
func (t *Tage) lookup(pc uint64) tageLookup {
	if t.cacheOK && t.cachePC == pc {
		return t.cacheLk
	}
	lk := tageLookup{
		idx:      make([]uint64, len(t.banks)),
		tags:     make([]uint16, len(t.banks)),
		provider: -1,
		baseIdx:  bitvec.PCIndexBits(pc, t.baseBits),
	}
	hist := t.bhr.Bits()
	for i, b := range t.banks {
		// Bank number is salted in so equal history slices land banks on
		// different rows; the double-folded tag decorrelates from the index.
		lk.idx[i] = (bitvec.PCIndexBits(pc, t.bankBits) ^
			foldBits(hist, b.length, t.bankBits) ^
			uint64(i)*0x9e37_79b9) & (uint64(1)<<t.bankBits - 1)
		lk.tags[i] = uint16((bitvec.PCIndexBits(pc, t.tagBits) ^
			foldBits(hist, b.length, t.tagBits) ^
			foldBits(hist, b.length, t.tagBits-1)<<1) & (uint64(1)<<t.tagBits - 1))
	}
	// The provider is the longest-history match; altpred is the next
	// match below it, falling back to the base prediction.
	basePred := t.base[lk.baseIdx].PredictTaken()
	lk.pred, lk.altpred = basePred, basePred
	for i := len(t.banks) - 1; i >= 0; i-- {
		if t.banks[i].tags[lk.idx[i]] == lk.tags[i] {
			if lk.provider < 0 {
				lk.provider = i
				lk.pred = t.banks[i].ctrs[lk.idx[i]].PredictTaken()
			} else {
				lk.altpred = t.banks[i].ctrs[lk.idx[i]].PredictTaken()
				break
			}
		}
	}
	t.cachePC, t.cacheLk, t.cacheOK = pc, lk, true
	return lk
}

// Predict implements Predictor.
func (t *Tage) Predict(r trace.Record) bool { return t.lookup(r.PC).pred }

// Update trains the provider (and the base when it provided), maintains
// usefulness, allocates a longer-history entry on a mispredict, and
// advances the global history with the resolved outcome.
func (t *Tage) Update(r trace.Record) {
	lk := t.lookup(r.PC)
	correct := lk.pred == r.Taken
	if lk.provider >= 0 {
		b := &t.banks[lk.provider]
		i := lk.idx[lk.provider]
		if r.Taken {
			b.ctrs[i] = b.ctrs[i].Inc()
		} else {
			b.ctrs[i] = b.ctrs[i].Dec()
		}
		// Usefulness tracks "provider beat the alternative".
		if lk.pred != lk.altpred {
			if correct {
				b.useful[i] = b.useful[i].Inc()
			} else {
				b.useful[i] = b.useful[i].Dec()
			}
		}
	} else {
		if r.Taken {
			t.base[lk.baseIdx] = t.base[lk.baseIdx].Inc()
		} else {
			t.base[lk.baseIdx] = t.base[lk.baseIdx].Dec()
		}
	}
	if !correct && lk.provider < len(t.banks)-1 {
		t.allocate(lk, r.Taken)
	}
	t.bhr.Record(r.Taken)
	t.cacheOK = false
}

// allocate claims an entry in the first longer-history bank whose useful
// counter is zero, seeding it weak toward the resolved outcome; when all
// candidates are protected, their useful counters decay instead (the
// standard TAGE aging rule, made deterministic by the fixed scan order).
func (t *Tage) allocate(lk tageLookup, taken bool) {
	for i := lk.provider + 1; i < len(t.banks); i++ {
		b := &t.banks[i]
		if b.useful[lk.idx[i]].Value() == 0 {
			b.tags[lk.idx[i]] = lk.tags[i]
			seed := uint8(3) // weakly not-taken
			if taken {
				seed = 4 // weakly taken
			}
			b.ctrs[lk.idx[i]] = bitvec.NewSatCounter(7, seed)
			b.useful[lk.idx[i]] = bitvec.NewSatCounter(3, 0)
			return
		}
	}
	for i := lk.provider + 1; i < len(t.banks); i++ {
		b := &t.banks[i]
		b.useful[lk.idx[i]] = b.useful[lk.idx[i]].Dec()
	}
}

// Reset restores every table to its initial state: base weakly taken,
// banks empty (tag 0, weak counters, useless), history clear.
func (t *Tage) Reset() {
	for i := range t.base {
		t.base[i] = bitvec.TwoBit(bitvec.WeaklyTaken)
	}
	for bi := range t.banks {
		b := &t.banks[bi]
		for i := range b.tags {
			b.tags[i] = 0
			b.ctrs[i] = bitvec.NewSatCounter(7, 3)
			b.useful[i] = bitvec.NewSatCounter(3, 0)
		}
	}
	t.bhr = bitvec.NewBHR(t.banks[len(t.banks)-1].length)
	t.cacheOK = false
}

// AnnotationState implements StateAnnotator: the pre-update native 2-bit
// confidence level the prediction for this branch carries, the providing
// counter's distance from its weak midpoint. A tagged provider's 3-bit
// counter gives the full 0..3 scale; a base-table prediction reports 3
// when the 2-bit counter is saturated and 0 when weak — the bimodal table
// has no middle grades to offer.
func (t *Tage) AnnotationState(r trace.Record) uint8 {
	lk := t.lookup(r.PC)
	if lk.provider >= 0 {
		c := t.banks[lk.provider].ctrs[lk.idx[lk.provider]].Value()
		if c >= 4 {
			return c - 4
		}
		return 3 - c
	}
	if c := t.base[lk.baseIdx]; c.Value() == 0 || c.Saturated() {
		return 3
	}
	return 0
}

// Name implements Predictor.
func (t *Tage) Name() string { return "tage" }

// tageStateVersion guards the TAGE checkpoint layout.
const tageStateVersion = 1

// MarshalState implements Checkpointer. Layout: version, baseBits,
// bankBits, tagBits, bank count, then each bank's history length (one
// byte each); the BHR bits as a little-endian uint64; the base counters
// packed four per byte; then per bank, entries in index order as
// tag (uint16 LE), counter byte, useful byte.
func (t *Tage) MarshalState() []byte {
	n := 5 + len(t.banks) + 8 + (len(t.base)+3)/4 + len(t.banks)*(1<<t.bankBits)*4
	out := make([]byte, 0, n)
	out = append(out, tageStateVersion, byte(t.baseBits), byte(t.bankBits), byte(t.tagBits), byte(len(t.banks)))
	for _, b := range t.banks {
		out = append(out, byte(b.length))
	}
	out = binary.LittleEndian.AppendUint64(out, t.bhr.Bits())
	var packed byte
	for i, c := range t.base {
		packed |= c.Value() << (2 * (uint(i) & 3))
		if i&3 == 3 {
			out = append(out, packed)
			packed = 0
		}
	}
	if len(t.base)&3 != 0 {
		out = append(out, packed)
	}
	for _, b := range t.banks {
		for i := range b.tags {
			out = binary.LittleEndian.AppendUint16(out, b.tags[i])
			out = append(out, b.ctrs[i].Value(), b.useful[i].Value())
		}
	}
	return out
}

// RestoreState implements Checkpointer, rejecting any structural mismatch
// before mutating the receiver: version or geometry drift, history bits
// outside the register window, out-of-range tag/counter/useful values,
// and truncated or trailing bytes.
func (t *Tage) RestoreState(data []byte) error {
	header := 5 + len(t.banks)
	if len(data) < header+8 {
		return fmt.Errorf("predictor: tage state truncated at %d bytes", len(data))
	}
	if data[0] != tageStateVersion {
		return fmt.Errorf("predictor: tage state version %d, want %d", data[0], tageStateVersion)
	}
	if uint(data[1]) != t.baseBits || uint(data[2]) != t.bankBits || uint(data[3]) != t.tagBits || int(data[4]) != len(t.banks) {
		return fmt.Errorf("predictor: tage state geometry b%d/k%d/t%d/n%d, want b%d/k%d/t%d/n%d",
			data[1], data[2], data[3], data[4], t.baseBits, t.bankBits, t.tagBits, len(t.banks))
	}
	for i, b := range t.banks {
		if uint(data[5+i]) != b.length {
			return fmt.Errorf("predictor: tage state bank %d history %d, want %d", i, data[5+i], b.length)
		}
	}
	bhr := binary.LittleEndian.Uint64(data[header:])
	maxLen := t.banks[len(t.banks)-1].length
	window := ^uint64(0)
	if maxLen < 64 {
		window = uint64(1)<<maxLen - 1
	}
	if bhr&^window != 0 {
		return fmt.Errorf("predictor: tage state history %#x exceeds %d-bit window", bhr, maxLen)
	}
	rest := data[header+8:]
	baseLen := (len(t.base) + 3) / 4
	bankLen := len(t.banks) * (1 << t.bankBits) * 4
	if len(rest) != baseLen+bankLen {
		return fmt.Errorf("predictor: tage state body %d bytes, want %d", len(rest), baseLen+bankLen)
	}
	baseRegion, bankRegion := rest[:baseLen], rest[baseLen:]
	if pad := len(t.base) & 3; pad != 0 {
		if baseRegion[len(baseRegion)-1]>>(2*uint(pad)) != 0 {
			return fmt.Errorf("predictor: tage state has bits beyond the final base counter")
		}
	}
	tagWindow := uint16(1)<<t.tagBits - 1
	for e := 0; e < len(t.banks)*(1<<t.bankBits); e++ {
		rec := bankRegion[e*4:]
		if tag := binary.LittleEndian.Uint16(rec); tag&^tagWindow != 0 {
			return fmt.Errorf("predictor: tage state tag %#x exceeds %d bits", tag, t.tagBits)
		}
		if rec[2] > 7 {
			return fmt.Errorf("predictor: tage state counter %d out of range [0,7]", rec[2])
		}
		if rec[3] > 3 {
			return fmt.Errorf("predictor: tage state useful %d out of range [0,3]", rec[3])
		}
	}
	// Validated; install.
	for i := range t.base {
		t.base[i] = bitvec.TwoBit(baseRegion[i/4] >> (2 * (uint(i) & 3)) & 3)
	}
	for bi := range t.banks {
		b := &t.banks[bi]
		for i := range b.tags {
			rec := bankRegion[(bi*(1<<t.bankBits)+i)*4:]
			b.tags[i] = binary.LittleEndian.Uint16(rec)
			b.ctrs[i] = bitvec.NewSatCounter(7, rec[2])
			b.useful[i] = bitvec.NewSatCounter(3, rec[3])
		}
	}
	t.bhr.Set(bhr)
	t.cacheOK = false
	return nil
}
