package predictor

import (
	"encoding/binary"
	"fmt"

	"branchconf/internal/bitvec"
	"branchconf/internal/trace"
)

func init() {
	Register("perceptron", func() Predictor { return NewPerceptron(10, 8, 8) })
}

// Perceptron is a hashed perceptron predictor: a bias table indexed by PC
// plus several weight tables, each indexed by a hash of the PC with one
// segment of global history. The prediction is the sign of the summed
// weights, and the magnitude of that sum is the predictor's *native*
// confidence — the margin by which the perceptron made up its mind —
// which the realtrace experiment compares against the paper's CIR tables.
//
// Training follows the standard rule: adjust every contributing weight
// toward the outcome when the prediction was wrong or the margin was
// within the threshold θ ≈ 1.93·h + 14.
type Perceptron struct {
	bias      []int8
	weights   [][]int8 // [table][row]
	hist      []uint64 // global history, newest outcome in bit 0 of word 0
	tableBits uint
	segBits   uint // history bits hashed into each table's index
	histBits  uint // total history = tables * segBits
	theta     int32

	// Sum memo mirroring the other predictors' index memos: the sum
	// depends only on PC and history, which advance only in Update.
	cachePC  uint64
	cacheSum int32
	cacheOK  bool
}

// NewPerceptron returns a hashed perceptron with 2^tableBits rows per
// table, `tables` history-hashed weight tables, and segBits history bits
// per table. It panics on out-of-range geometry.
func NewPerceptron(tableBits, tables, segBits uint) *Perceptron {
	if tableBits == 0 || tableBits > 30 {
		panic(fmt.Sprintf("predictor: perceptron table bits %d out of range [1,30]", tableBits))
	}
	if tables == 0 || tables > 64 {
		panic(fmt.Sprintf("predictor: perceptron wants 1..64 tables, got %d", tables))
	}
	if segBits == 0 || segBits > bitvec.MaxShiftWidth {
		panic(fmt.Sprintf("predictor: perceptron segment bits %d out of range [1,64]", segBits))
	}
	h := tables * segBits
	p := &Perceptron{
		bias:      make([]int8, 1<<tableBits),
		weights:   make([][]int8, tables),
		hist:      make([]uint64, (h+63)/64),
		tableBits: tableBits,
		segBits:   segBits,
		histBits:  h,
		theta:     int32(193*h+1400) / 100,
	}
	for i := range p.weights {
		p.weights[i] = make([]int8, 1<<tableBits)
	}
	p.Reset()
	return p
}

// segment extracts history bits [i*segBits, (i+1)*segBits) from the
// multi-word shift register.
func (p *Perceptron) segment(i uint) uint64 {
	lo := i * p.segBits
	word, off := lo/64, lo%64
	v := p.hist[word] >> off
	if off+p.segBits > 64 && int(word+1) < len(p.hist) {
		v |= p.hist[word+1] << (64 - off)
	}
	return v & (uint64(1)<<p.segBits - 1)
}

// sum computes the perceptron output for pc, memoizing until the next
// Update.
func (p *Perceptron) sum(pc uint64) int32 {
	if p.cacheOK && p.cachePC == pc {
		return p.cacheSum
	}
	s := int32(p.bias[bitvec.PCIndexBits(pc, p.tableBits)])
	for i := range p.weights {
		s += int32(p.weights[i][p.row(pc, uint(i))])
	}
	p.cachePC, p.cacheSum, p.cacheOK = pc, s, true
	return s
}

// row hashes the PC with table i's history segment into a table row. The
// table number is salted in so identical segments map to different rows.
func (p *Perceptron) row(pc uint64, i uint) uint64 {
	return bitvec.XORIndex(p.tableBits,
		bitvec.PCIndexBits(pc, p.tableBits),
		p.segment(i)^uint64(i)*0x9e37_79b9)
}

// Predict implements Predictor: taken when the summed weights are
// non-negative.
func (p *Perceptron) Predict(r trace.Record) bool { return p.sum(r.PC) >= 0 }

// saturate steps a weight toward the outcome, clamping to int8 range.
func saturate(w int8, up bool) int8 {
	if up {
		if w == 127 {
			return w
		}
		return w + 1
	}
	if w == -128 {
		return w
	}
	return w - 1
}

// Update trains on a mispredict or a below-threshold margin, then shifts
// the resolved outcome into the history.
func (p *Perceptron) Update(r trace.Record) {
	s := p.sum(r.PC)
	pred := s >= 0
	margin := s
	if margin < 0 {
		margin = -margin
	}
	if pred != r.Taken || margin <= p.theta {
		bi := bitvec.PCIndexBits(r.PC, p.tableBits)
		p.bias[bi] = saturate(p.bias[bi], r.Taken)
		for i := range p.weights {
			row := p.row(r.PC, uint(i))
			p.weights[i][row] = saturate(p.weights[i][row], r.Taken)
		}
	}
	// Shift the multi-word history left one bit, inserting the outcome.
	carry := uint64(0)
	if r.Taken {
		carry = 1
	}
	for i := range p.hist {
		next := p.hist[i] >> 63
		p.hist[i] = p.hist[i]<<1 | carry
		carry = next
	}
	if top := p.histBits % 64; top != 0 {
		p.hist[len(p.hist)-1] &= uint64(1)<<top - 1
	}
	p.cacheOK = false
}

// Reset zeroes every weight and the history.
func (p *Perceptron) Reset() {
	for i := range p.bias {
		p.bias[i] = 0
	}
	for _, w := range p.weights {
		for i := range w {
			w[i] = 0
		}
	}
	for i := range p.hist {
		p.hist[i] = 0
	}
	p.cacheOK = false
}

// AnnotationState implements StateAnnotator: the pre-update native
// confidence level for this branch, the margin |sum| quantized against the
// training threshold θ into the 2-bit lane: min(3, 4·|sum|/(θ+1)).
// Training stops reinforcing once the margin clears θ, so margins live in
// [0, θ+ε] — quartering that range uses all four levels, with 3 meaning
// "the perceptron stopped needing to learn this branch".
func (p *Perceptron) AnnotationState(r trace.Record) uint8 {
	s := p.sum(r.PC)
	if s < 0 {
		s = -s
	}
	level := int32(4) * s / (p.theta + 1)
	if level > 3 {
		level = 3
	}
	return uint8(level)
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

// perceptronStateVersion guards the perceptron checkpoint layout.
const perceptronStateVersion = 1

// MarshalState implements Checkpointer. Layout: version, tableBits, table
// count, segBits (one byte each); the history words little-endian; the
// bias table; then each weight table in order, weights as raw int8 bytes.
func (p *Perceptron) MarshalState() []byte {
	n := 4 + 8*len(p.hist) + (1+len(p.weights))*(1<<p.tableBits)
	out := make([]byte, 0, n)
	out = append(out, perceptronStateVersion, byte(p.tableBits), byte(len(p.weights)), byte(p.segBits))
	for _, w := range p.hist {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	for _, b := range p.bias {
		out = append(out, byte(b))
	}
	for _, tbl := range p.weights {
		for _, w := range tbl {
			out = append(out, byte(w))
		}
	}
	return out
}

// RestoreState implements Checkpointer, rejecting version or geometry
// drift, history bits beyond the window, and truncated or trailing bytes
// before mutating the receiver. Weights are raw int8 bytes, inherently in
// range.
func (p *Perceptron) RestoreState(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("predictor: perceptron state truncated at %d bytes", len(data))
	}
	if data[0] != perceptronStateVersion {
		return fmt.Errorf("predictor: perceptron state version %d, want %d", data[0], perceptronStateVersion)
	}
	if uint(data[1]) != p.tableBits || int(data[2]) != len(p.weights) || uint(data[3]) != p.segBits {
		return fmt.Errorf("predictor: perceptron state geometry t%d/n%d/s%d, want t%d/n%d/s%d",
			data[1], data[2], data[3], p.tableBits, len(p.weights), p.segBits)
	}
	want := 4 + 8*len(p.hist) + (1+len(p.weights))*(1<<p.tableBits)
	if len(data) != want {
		return fmt.Errorf("predictor: perceptron state %d bytes, want %d", len(data), want)
	}
	histRegion := data[4 : 4+8*len(p.hist)]
	hist := make([]uint64, len(p.hist))
	for i := range hist {
		hist[i] = binary.LittleEndian.Uint64(histRegion[8*i:])
	}
	if top := p.histBits % 64; top != 0 {
		if hist[len(hist)-1]&^(uint64(1)<<top-1) != 0 {
			return fmt.Errorf("predictor: perceptron state history exceeds %d-bit window", p.histBits)
		}
	}
	// Validated; install.
	body := data[4+8*len(p.hist):]
	copy(p.hist, hist)
	rows := 1 << p.tableBits
	for i := range p.bias {
		p.bias[i] = int8(body[i])
	}
	for t := range p.weights {
		region := body[(1+t)*rows:]
		for i := range p.weights[t] {
			p.weights[t][i] = int8(region[i])
		}
	}
	p.cacheOK = false
	return nil
}
