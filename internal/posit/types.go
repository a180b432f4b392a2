package posit

import "fmt"

// Posit32 is a 32-bit standard posit (es = 2) stored as its raw bit
// pattern, the direct analogue of SoftPosit's posit32_t.
type Posit32 uint32

// P32FromFloat64 rounds x to the nearest 32-bit posit.
func P32FromFloat64(x float64) Posit32 { return Posit32(EncodeFloat64(Std32, x)) }

// P32FromBits reinterprets a raw bit pattern as a posit, the fault
// injector's entry point (no rounding, mirroring the paper's direct
// struct-member access into SoftPosit).
func P32FromBits(b uint32) Posit32 { return Posit32(b) }

// Bits returns the raw bit pattern.
func (p Posit32) Bits() uint32 { return uint32(p) }

// Float64 decodes the posit to float64 (exact for 32-bit posits).
func (p Posit32) Float64() float64 { return DecodeFloat64(Std32, uint64(p)) }

// IsNaR reports whether p is Not-a-Real.
func (p Posit32) IsNaR() bool { return uint64(p) == Std32.NaR() }

// IsZero reports whether p is zero.
func (p Posit32) IsZero() bool { return p == 0 }

// Neg returns -p (the two's complement of the pattern).
func (p Posit32) Neg() Posit32 { return Posit32(Std32.Negate(uint64(p))) }

// Abs returns |p|.
func (p Posit32) Abs() Posit32 {
	if Std32.IsNeg(uint64(p)) && !p.IsNaR() {
		return p.Neg()
	}
	return p
}

// Add returns the correctly rounded sum p + q.
func (p Posit32) Add(q Posit32) Posit32 { return Posit32(Add(Std32, uint64(p), uint64(q))) }

// Sub returns the correctly rounded difference p - q.
func (p Posit32) Sub(q Posit32) Posit32 { return Posit32(Sub(Std32, uint64(p), uint64(q))) }

// Mul returns the correctly rounded product p × q.
func (p Posit32) Mul(q Posit32) Posit32 { return Posit32(Mul(Std32, uint64(p), uint64(q))) }

// Div returns the correctly rounded quotient p ÷ q.
func (p Posit32) Div(q Posit32) Posit32 { return Posit32(Div(Std32, uint64(p), uint64(q))) }

// Sqrt returns the correctly rounded square root of p.
func (p Posit32) Sqrt() Posit32 { return Posit32(Sqrt(Std32, uint64(p))) }

// Cmp compares p and q (-1, 0, +1); NaR sorts below all reals.
func (p Posit32) Cmp(q Posit32) int { return Cmp(Std32, uint64(p), uint64(q)) }

func (p Posit32) String() string { return formatPosit(Std32, uint64(p)) }

func formatPosit(cfg Config, b uint64) string {
	b = cfg.Canon(b)
	switch {
	case b == 0:
		return "0"
	case b == cfg.NaR():
		return "NaR"
	}
	return fmt.Sprintf("%g", DecodeFloat64(cfg, b))
}
