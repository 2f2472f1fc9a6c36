package bitvec

import "fmt"

// Dense is a growable array of fixed-width unsigned integers packed into
// 64-bit words. It backs the predictor-state lane of annotated simulation
// streams and the per-branch counter lanes the cycle models read
// (internal/sim): a 2-bit-wide Dense stores a one-million-branch
// annotation in 250 KB instead of the 1 MB of a []uint8, and a 16-bit
// CIR-pattern lane costs 2 B/branch instead of 8.
//
// Values never straddle word boundaries: each word holds ⌊64/width⌋
// values, so At is one shift-and-mask and readers can stream whole words
// (see Words). Dense is append-only; a fully built array may be read from
// many goroutines concurrently.
type Dense struct {
	words   []uint64
	width   uint
	perWord uint
	mask    uint64
	shift   uint // bit offset of the next Append within the current word
	n       int
}

// NewDense returns an empty packed array of width-bit values with capacity
// for n values preallocated. It panics on widths outside [1,64]: annotation
// lanes are a few bits, bucket lanes at most a full 64-bit CIR pattern.
func NewDense(width uint, n int) *Dense {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bitvec: Dense width %d out of range [1,64]", width))
	}
	perWord := 64 / width
	if n < 0 {
		n = 0
	}
	return &Dense{
		words:   make([]uint64, 0, (n+int(perWord)-1)/int(perWord)),
		width:   width,
		perWord: perWord,
		mask:    maskOf(width),
	}
}

// DenseFromWords reconstructs a packed array of n width-bit values from its
// backing words, in the layout Words returns (value j of word i in bits
// [j*width, (j+1)*width), unused high bits zero). It is the inverse of
// Words + Len + Width, used by the persistence codecs (internal/sim) to
// revive lanes from verified artifact payloads. Unlike NewDense it returns
// errors instead of panicking: the input is a decoded file, not caller
// code, and a malformed shape must surface as artifact corruption.
func DenseFromWords(width uint, words []uint64, n int) (*Dense, error) {
	if width == 0 || width > 64 {
		return nil, fmt.Errorf("bitvec: DenseFromWords width %d out of range [1,64]", width)
	}
	if n < 0 {
		return nil, fmt.Errorf("bitvec: DenseFromWords with negative length %d", n)
	}
	perWord := 64 / width
	need := (n + int(perWord) - 1) / int(perWord)
	if len(words) != need {
		return nil, fmt.Errorf("bitvec: DenseFromWords got %d words for %d values of width %d (want %d)", len(words), n, width, need)
	}
	if used := perWord * width; used < 64 {
		for i, w := range words {
			if w>>used != 0 {
				return nil, fmt.Errorf("bitvec: DenseFromWords word %d has nonzero bits above slot %d", i, perWord)
			}
		}
	}
	slot := uint(n) % perWord
	if slot != 0 && words[len(words)-1]>>(slot*width) != 0 {
		return nil, fmt.Errorf("bitvec: DenseFromWords has nonzero bits beyond length %d", n)
	}
	return &Dense{
		words:   words,
		width:   width,
		perWord: perWord,
		mask:    maskOf(width),
		shift:   slot * width,
		n:       n,
	}, nil
}

// Reset truncates the array to empty, keeping its word storage — and its
// width — for reuse. Like Vector.Reset, it restarts the append-only
// contract: the array must not be reset while readers hold it.
func (d *Dense) Reset() {
	d.words = d.words[:0]
	d.shift = 0
	d.n = 0
}

// Append adds one value at index Len(). Bits above the configured width are
// discarded, matching the hardware register the lane models.
func (d *Dense) Append(v uint64) {
	if d.shift == 0 {
		d.words = append(d.words, 0)
	}
	d.words[len(d.words)-1] |= (v & d.mask) << d.shift
	d.shift += d.width
	if d.shift+d.width > 64 {
		d.shift = 0
	}
	d.n++
}

// AppendWord appends count values at once from a pre-packed word: value j
// (0 ≤ j < count) occupies bits [j*Width(), (j+1)*Width()) of word, and all
// bits above count*Width() must be zero. The receiver must be word-aligned
// (Len() a multiple of PerWord()), which holds whenever the array has only
// been filled by AppendWord calls — the bulk lane kernels (internal/core)
// pack a register and flush it here once per PerWord() branches instead of
// paying an Append call each. A final partial word (count < PerWord()) may
// be followed by further Appends, which continue packing into it.
func (d *Dense) AppendWord(word uint64, count uint) {
	if d.shift != 0 {
		panic("bitvec: AppendWord on non-word-aligned Dense")
	}
	if count == 0 || count > d.perWord {
		panic(fmt.Sprintf("bitvec: AppendWord count %d out of range [1,%d]", count, d.perWord))
	}
	d.words = append(d.words, word)
	d.n += int(count)
	if count < d.perWord {
		d.shift = count * d.width
	}
}

// AppendWords bulk-appends count values packed into words (the layout
// AppendWord documents; only the final word may be partial, and its bits
// above the packed values must be zero). The receiver must be word-aligned
// like AppendWord. The lane kernels buffer a few hundred packed words and
// flush them here, amortising the per-word call overhead away.
func (d *Dense) AppendWords(words []uint64, count int) {
	if d.shift != 0 {
		panic("bitvec: AppendWords on non-word-aligned Dense")
	}
	need := (count + int(d.perWord) - 1) / int(d.perWord)
	if count <= 0 || need != len(words) {
		panic(fmt.Sprintf("bitvec: AppendWords got %d words for %d values (want %d)", len(words), count, need))
	}
	d.words = append(d.words, words...)
	d.n += count
	if rem := uint(count) % d.perWord; rem != 0 {
		d.shift = rem * d.width
	}
}

// At returns the value at index i. It panics when i is out of range, like a
// slice access: replay offsets are maintained by the caller.
func (d *Dense) At(i int) uint64 {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("bitvec: Dense index %d out of range [0,%d)", i, d.n))
	}
	slot := uint(i) % d.perWord
	return d.words[uint(i)/d.perWord] >> (slot * d.width) & d.mask
}

// Len returns the number of values appended.
func (d *Dense) Len() int { return d.n }

// Width returns the per-value bit width.
func (d *Dense) Width() uint { return d.width }

// PerWord returns how many values each packed word holds.
func (d *Dense) PerWord() uint { return d.perWord }

// Words returns the packed backing words. Word i holds values
// [i*PerWord(), (i+1)*PerWord()), each Width() bits, least significant
// first; any trailing bits of the last word are zero. The slice is the
// live backing store and must not be mutated — it exists so streaming
// readers (the tally kernel in internal/sim) can consume one word per
// PerWord() values instead of calling At per index.
func (d *Dense) Words() []uint64 { return d.words }

// Bytes returns the memory footprint of the packed words in bytes.
func (d *Dense) Bytes() uint64 { return uint64(len(d.words)) * 8 }
