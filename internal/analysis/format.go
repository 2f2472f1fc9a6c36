package analysis

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFixed appends v in fixed notation with prec digits after the
// decimal point. Its output is exactly the bytes of
// strconv.AppendFloat(dst, v, 'f', prec, 64), which fmt's %.<prec>f prints
// too.
//
// strconv formats 'f' at an explicit precision through its
// arbitrary-precision decimal, which is slow. At an explicit number of
// significant digits ('e', up to 17 digits) it takes its exact fixed-digit
// path instead. Rounding at prec decimals is rounding at e+1+prec
// significant digits, where e is the exact decimal exponent of |v|, so
// AppendFixed formats with 'e' at that digit count and lays the digits out
// in fixed notation. A value below 10^-prec needs no digits: it rounds to
// zero or to 10^-prec. Where neither applies it falls back to strconv: NaN
// and infinities, a negative prec or one above 17, more than 17 digits,
// and a value equal to the float nearest a negative power of ten or half
// of one, whose exact place a float comparison cannot tell.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if !(a <= math.MaxFloat64) || prec < 0 || prec > 17 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	var buf [32]byte
	var ds []byte // the rounded value's significant digits (none for zero)
	x := 0        // the decimal exponent of ds[0]
	if a != 0 {
		var ok bool
		if ds, x, ok = roundDigits(buf[:0], a, prec); !ok {
			return strconv.AppendFloat(dst, v, 'f', prec, 64)
		}
	}

	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	lead := 0 // zeros between the point and the first digit
	if x >= 0 {
		n := min(x+1, len(ds))
		dst = append(dst, ds[:n]...)
		dst = appendZeros(dst, x+1-n)
		ds = ds[n:]
	} else {
		dst = append(dst, '0')
		lead = -x - 1
	}
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	dst = appendZeros(dst, lead)
	n := min(prec-lead, len(ds))
	dst = append(dst, ds[:n]...)
	return appendZeros(dst, prec-lead-n)
}

// roundDigits rounds a > 0 at prec decimals, into buf. It returns the
// significant digits and the decimal exponent of the first (no digits
// when a rounds to zero), or ok false where it cannot tell the rounding.
// The exponent is a's own, or one more when rounding carried into a new
// leading digit; every digit after such a carry is zero, so padding the
// digits with zeros lays the rounded value out exactly.
func roundDigits(buf []byte, a float64, prec int) (ds []byte, x int, ok bool) {
	// floor(log10 a) is floor(exp2·log10 2) or one more (the multiplier
	// is Ryū's log10(2) in 2^-18ths).
	exp2 := int(math.Float64bits(a)>>52&0x7ff) - 1023
	e := exp2 * 78913 >> 18
	if a >= math.Pow10(e+1) {
		e++
	}
	digits := e + 1 + prec
	if digits < 1 {
		// a is below 10^-prec: it rounds up to 10^-prec when above half
		// of it. Half of 10^-prec's nearest float is the nearest float to
		// that half, so only a value equal to it is ambiguous, except at
		// prec 0, where it is 0.5 exactly: a tie, which rounds to even.
		half := math.Pow10(-prec) / 2
		switch {
		case a > half:
			return append(buf, '1'), -prec, true
		case a < half || prec == 0:
			return nil, 0, true
		}
		return nil, 0, false
	}
	if digits > 17 || (e < 0 && a == math.Pow10(e)) {
		return nil, 0, false
	}
	sci := strconv.AppendFloat(buf, a, 'e', digits-1, 64) // "D[.DDD]e±XX"
	mark := len(sci) - 4
	for sci[mark] != 'e' {
		mark--
	}
	for _, c := range sci[mark+2:] {
		x = 10*x + int(c-'0')
	}
	if sci[mark+1] == '-' {
		x = -x
	}
	ds = sci[:mark]
	if len(ds) > 1 {
		ds[1] = ds[0] // drop the decimal point: ds[1:] holds every digit
		ds = ds[1:]
	}
	return ds, x, true
}

func appendZeros(dst []byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, '0')
	}
	return dst
}

// appendFixedWidth appends v as fmt's %<width>.<prec>f does: AppendFixed
// right-aligned in width columns.
func appendFixedWidth(dst []byte, v float64, prec, width int) []byte {
	var buf [32]byte
	s := AppendFixed(buf[:0], v, prec)
	for n := len(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}

// appendPadRight appends s as fmt's %-<width>s does: left-aligned and
// padded with spaces to width runes.
func appendPadRight(dst []byte, s string, width int) []byte {
	dst = append(dst, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}

// appendIntWidth appends n as fmt's %<width>d does: right-aligned in
// width columns.
func appendIntWidth(dst []byte, n, width int) []byte {
	var buf [24]byte
	s := strconv.AppendInt(buf[:0], int64(n), 10)
	for i := len(s); i < width; i++ {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}
