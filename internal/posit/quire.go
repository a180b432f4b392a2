package posit

import (
	"fmt"
	"math/bits"
)

// Quire is the fixed-point accumulator defined by the 2022 posit
// standard: a two's-complement register of 16·N bits whose LSB has
// weight 2^-(8(N-2)). It holds the exact sum of up to 2^31 products of
// posits with no rounding; a single rounding occurs when the value is
// read back out with ToPosit. Quires make dot products, sums and
// matrix kernels reproducible regardless of accumulation order.
type Quire struct {
	cfg Config
	nar bool
	// w holds the register little-endian: w[0] is the least
	// significant 64 bits. len(w) = 16*N/64 = N/4 words.
	w []uint64
}

// NewQuire returns a zeroed quire for the given posit configuration.
// N must be a multiple of 4 (all standard widths are).
func NewQuire(cfg Config) *Quire {
	if cfg.N%4 != 0 {
		panic(fmt.Sprintf("posit: quire requires N divisible by 4, got %v", cfg))
	}
	return &Quire{cfg: cfg, w: make([]uint64, cfg.N/4)}
}

// fracBits returns the number of fraction bits in the quire fixed
// point: 8(N-2) per the standard (240 for posit32).
func (q *Quire) fracBits() int { return 8 * (q.cfg.N - 2) }

// Zero resets the quire.
func (q *Quire) Zero() {
	q.nar = false
	for i := range q.w {
		q.w[i] = 0
	}
}

// IsNaR reports whether the quire holds Not-a-Real.
func (q *Quire) IsNaR() bool { return q.nar }

// AddPosit accumulates q += p exactly.
func (q *Quire) AddPosit(p uint64) { q.fma(p, EncodeFloat64(q.cfg, 1), false) }

// SubPosit accumulates q -= p exactly.
func (q *Quire) SubPosit(p uint64) { q.fma(p, EncodeFloat64(q.cfg, 1), true) }

// AddProduct accumulates q += a×b exactly (fused: the product is never
// rounded).
func (q *Quire) AddProduct(a, b uint64) { q.fma(a, b, false) }

func (q *Quire) fma(a, b uint64, subtract bool) {
	if q.nar {
		return
	}
	ua, ub := unpack(q.cfg, a), unpack(q.cfg, b)
	if ua.nar || ub.nar {
		q.nar = true
		return
	}
	if ua.zero || ub.zero {
		return
	}
	hi, lo := bits.Mul64(ua.sig, ub.sig) // exact product, scale 2^(ha+hb-124)
	neg := (ua.neg != ub.neg) != subtract
	// Quire bit position of product bit 0.
	s := q.fracBits() + ua.h + ub.h - 124
	if s < 0 {
		// The dropped low bits are provably zero for in-range posit
		// products (the quire is sized to hold them exactly), but we
		// shift defensively.
		if -s >= 64 {
			lo = hi >> uint(-s-64)
			hi = 0
		} else {
			lo = lo>>uint(-s) | hi<<uint(64-(-s))
			hi >>= uint(-s)
		}
		s = 0
	}
	word, off := s/64, uint(s%64)
	// Spread the 128-bit product across up to three words.
	var p [3]uint64
	p[0] = lo << off
	if off == 0 {
		p[1] = hi
	} else {
		p[1] = lo>>(64-off) | hi<<off
		p[2] = hi >> (64 - off)
	}
	if neg {
		q.subAt(word, p)
	} else {
		q.addAt(word, p)
	}
}

func (q *Quire) addAt(word int, p [3]uint64) {
	var carry uint64
	for i := 0; i < 3 && word+i < len(q.w); i++ {
		q.w[word+i], carry = bits.Add64(q.w[word+i], p[i], carry)
	}
	for i := word + 3; carry != 0 && i < len(q.w); i++ {
		q.w[i], carry = bits.Add64(q.w[i], 0, carry)
	}
}

func (q *Quire) subAt(word int, p [3]uint64) {
	var borrow uint64
	for i := 0; i < 3 && word+i < len(q.w); i++ {
		q.w[word+i], borrow = bits.Sub64(q.w[word+i], p[i], borrow)
	}
	for i := word + 3; borrow != 0 && i < len(q.w); i++ {
		q.w[i], borrow = bits.Sub64(q.w[i], 0, borrow)
	}
}

// ToPosit rounds the accumulated value to the nearest posit (the only
// rounding in a quire computation).
func (q *Quire) ToPosit() uint64 {
	if q.nar {
		return q.cfg.NaR()
	}
	neg := q.w[len(q.w)-1]>>63 != 0
	mag := make([]uint64, len(q.w))
	copy(mag, q.w)
	if neg {
		negateWords(mag)
	}
	// Locate the most significant set bit.
	msb := -1
	for i := len(mag) - 1; i >= 0; i-- {
		if mag[i] != 0 {
			msb = 64*i + 63 - bits.LeadingZeros64(mag[i])
			break
		}
	}
	if msb < 0 {
		return 0
	}
	h := msb - q.fracBits()
	// Extract the 64 bits below the leading 1 (the fraction tail) and
	// a sticky flag for everything lower.
	tail := extractBelow(mag, msb)
	sticky := anyBelow(mag, msb-64)
	p := assemble(q.cfg, h, tail, sticky)
	if neg {
		p = q.cfg.Negate(p)
	}
	return p
}

// Float64 reads the quire value as a float64 (for diagnostics; rounds
// twice, unlike ToPosit).
func (q *Quire) Float64() float64 {
	return DecodeFloat64(q.cfg, q.ToPosit())
}

func negateWords(w []uint64) {
	carry := uint64(1)
	for i := range w {
		w[i], carry = bits.Add64(^w[i], 0, carry)
	}
}

// extractBelow returns the 64 bits at positions [msb-64, msb-1] of the
// little-endian word array, left-aligned (bit msb-1 becomes bit 63).
// Positions below zero read as 0.
func extractBelow(w []uint64, msb int) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		pos := msb - 1 - i // stream order, MSB first
		if pos < 0 {
			break
		}
		if w[pos/64]>>(uint(pos%64))&1 != 0 {
			out |= 1 << uint(63-i)
		}
	}
	return out
}

// anyBelow reports whether any bit at a position strictly below limit
// is set.
func anyBelow(w []uint64, limit int) bool {
	if limit <= 0 {
		return false
	}
	full := limit / 64
	for i := 0; i < full; i++ {
		if w[i] != 0 {
			return true
		}
	}
	if rem := uint(limit % 64); rem != 0 && full < len(w) {
		if w[full]&maskN(int(rem)) != 0 {
			return true
		}
	}
	return false
}

// DotP32 computes the exact dot product of two posit32 slices through
// a quire, rounding once at the end.
func DotP32(a, b []Posit32) Posit32 {
	if len(a) != len(b) {
		panic("posit: DotP32 length mismatch")
	}
	q := NewQuire(Std32)
	for i := range a {
		q.AddProduct(uint64(a[i]), uint64(b[i]))
	}
	return Posit32(q.ToPosit())
}
