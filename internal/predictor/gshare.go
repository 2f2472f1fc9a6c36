package predictor

import (
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

func init() {
	Register("gshare-64K", func() Predictor { return Gshare64K() })
	Register("gshare-4K", func() Predictor { return Gshare4K() })
	Register("gselect-64K", func() Predictor { return NewGselect(16, 8, 8) })
}

// Gshare is McFarling's global-history predictor: a table of 2-bit counters
// indexed by the exclusive-OR of low PC bits and a global branch history
// register. The paper's underlying predictor for all confidence experiments.
type Gshare struct {
	table       []bitvec.SatCounter
	bhr         bitvec.BHR
	tableBits   uint
	historyBits uint

	// Index memo for the predict-then-train protocol: the index depends
	// only on PC and history, and history advances only in Update, so the
	// index computed by Predict is still valid for the Update that follows.
	cachePC  uint64
	cacheIdx uint64
	cacheOK  bool
}

// NewGshare returns a gshare predictor with 2^tableBits counters and
// historyBits bits of global history. Counters initialise weakly taken
// (§4). With historyBits == 0 the index degenerates to the PC alone and
// the predictor behaves exactly like a bimodal table of the same size.
// It panics on out-of-range geometry.
func NewGshare(tableBits, historyBits uint) *Gshare {
	if tableBits == 0 || tableBits > 30 {
		panic(fmt.Sprintf("predictor: gshare table bits %d out of range [1,30]", tableBits))
	}
	if historyBits > bitvec.MaxShiftWidth {
		panic(fmt.Sprintf("predictor: gshare history bits %d out of range [0,64]", historyBits))
	}
	g := &Gshare{
		table:       make([]bitvec.SatCounter, 1<<tableBits),
		tableBits:   tableBits,
		historyBits: historyBits,
	}
	g.Reset()
	return g
}

// index computes the table index for the current history and branch PC,
// memoizing it until the history next advances.
func (g *Gshare) index(pc uint64) uint64 {
	if g.cacheOK && g.cachePC == pc {
		return g.cacheIdx
	}
	i := bitvec.XORIndex(g.tableBits, bitvec.PCIndexBits(pc, g.tableBits), g.bhr.Bits())
	g.cachePC, g.cacheIdx, g.cacheOK = pc, i, true
	return i
}

// Predict reads the counter selected by PC xor BHR.
func (g *Gshare) Predict(r trace.Record) bool {
	return g.table[g.index(r.PC)].PredictTaken()
}

// Update trains the selected counter and shifts the resolved direction into
// the global history register. Histories are updated with resolved (not
// speculative) outcomes, as in the paper's trace-driven methodology.
func (g *Gshare) Update(r trace.Record) {
	i := g.index(r.PC)
	if r.Taken {
		g.table[i] = g.table[i].Inc()
	} else {
		g.table[i] = g.table[i].Dec()
	}
	if g.historyBits > 0 {
		g.bhr.Record(r.Taken)
	}
	g.cacheOK = false
}

// Reset restores counters to weakly taken and clears the history.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = bitvec.TwoBit(bitvec.WeaklyTaken)
	}
	w := g.historyBits
	if w == 0 {
		w = 1 // zero-width registers are unsupported; an unrecorded 1-bit BHR stays zero
	}
	g.bhr = bitvec.NewBHR(w)
	g.cacheOK = false
}

// History exposes the current global history bits; confidence mechanisms
// share the BHR with the predictor when indexing their own tables.
func (g *Gshare) History() uint64 { return g.bhr.Bits() }

// CounterState returns the raw 2-bit counter state (0..3) the predictor
// would consult for this branch. Strength-based confidence estimation
// (Smith '81, the paper's §1.1 precursor) reads confidence directly from
// how saturated this counter is.
func (g *Gshare) CounterState(pc uint64) uint8 {
	return g.table[g.index(pc)].Value()
}

// AnnotationState implements StateAnnotator: the pre-update 2-bit counter
// value the prediction for this branch reads, the state counter-strength
// confidence estimation consumes.
func (g *Gshare) AnnotationState(r trace.Record) uint8 { return g.CounterState(r.PC) }

// AnnotationBits implements StateAnnotator: gshare annotations are the
// 2-bit counter value.
func (g *Gshare) AnnotationBits() uint { return 2 }

// TableBits returns log2 of the table size.
func (g *Gshare) TableBits() uint { return g.tableBits }

// HistoryBits returns the global history length.
func (g *Gshare) HistoryBits() uint { return g.historyBits }

// Name implements Predictor. Engine and artifact keys derive from it, so
// it names every parameter: the history length appears as a suffix only
// when it differs from the table bits, which keeps the paper's "gshare-4K"
// and "gshare-64K" while NewGshare(12, 0) becomes "gshare-4K-h0".
func (g *Gshare) Name() string {
	if g.historyBits == g.tableBits {
		return fmt.Sprintf("gshare-%s", sizeName(g.tableBits))
	}
	return fmt.Sprintf("gshare-%s-h%d", sizeName(g.tableBits), g.historyBits)
}

// Gselect concatenates PC bits and history bits instead of XORing them
// (McFarling's gselect). Included for baseline comparisons: gshare usually
// wins at equal table sizes because XOR uses all index bits for both
// components.
type Gselect struct {
	table       []bitvec.SatCounter
	bhr         bitvec.BHR
	tableBits   uint
	pcBits      uint
	historyBits uint
}

// NewGselect returns a gselect predictor with 2^tableBits counters indexed
// by the concatenation of pcBits PC bits (low) and historyBits history bits
// (high). pcBits+historyBits should equal tableBits; excess is masked.
func NewGselect(tableBits, pcBits, historyBits uint) *Gselect {
	if tableBits == 0 || tableBits > 30 {
		panic(fmt.Sprintf("predictor: gselect table bits %d out of range [1,30]", tableBits))
	}
	if historyBits == 0 || historyBits > bitvec.MaxShiftWidth {
		panic(fmt.Sprintf("predictor: gselect history bits %d out of range [1,64]", historyBits))
	}
	g := &Gselect{
		table:       make([]bitvec.SatCounter, 1<<tableBits),
		tableBits:   tableBits,
		pcBits:      pcBits,
		historyBits: historyBits,
	}
	g.Reset()
	return g
}

func (g *Gselect) index(pc uint64) uint64 {
	return bitvec.ConcatIndex(g.tableBits,
		[]uint64{bitvec.PCIndexBits(pc, g.pcBits), g.bhr.Bits()},
		[]uint{g.pcBits, g.historyBits})
}

// Predict reads the counter selected by the concatenated index.
func (g *Gselect) Predict(r trace.Record) bool {
	return g.table[g.index(r.PC)].PredictTaken()
}

// Update trains the counter and history.
func (g *Gselect) Update(r trace.Record) {
	i := g.index(r.PC)
	if r.Taken {
		g.table[i] = g.table[i].Inc()
	} else {
		g.table[i] = g.table[i].Dec()
	}
	g.bhr.Record(r.Taken)
}

// Reset restores counters to weakly taken and clears the history.
func (g *Gselect) Reset() {
	for i := range g.table {
		g.table[i] = bitvec.TwoBit(bitvec.WeaklyTaken)
	}
	g.bhr = bitvec.NewBHR(g.historyBits)
}

// Name implements Predictor.
func (g *Gselect) Name() string { return fmt.Sprintf("gselect-%s", sizeName(g.tableBits)) }
