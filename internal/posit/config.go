// Package posit implements the posit number system (Posit Standard 2022,
// Gustafson et al.) in pure Go. It replaces the
// SoftPosit C library used by the paper "Evaluating the Resiliency of
// Posits for Scientific Computing" (SC-W 2023): it provides bit-exact
// encode/decode between IEEE-754 float64 and posits of any width,
// two's-complement negation, raw bit access for fault injection,
// field decomposition (sign/regime/exponent/fraction), and correctly
// rounded arithmetic (+, -, ×, ÷, √) together with the standard quire
// accumulator.
//
// The standard fixes the exponent field size es = 2 for every posit
// width; legacy es values (0, 1, 3) remain available through Config for
// ablation studies.
package posit

import "fmt"

// Config describes a posit format: the total bit width N and the size in
// bits of the (maximal) exponent field ES. The Posit Standard (2022)
// fixes ES = 2 for all widths; other ES values describe legacy
// (2017-era) posit formats and are supported for ablation experiments.
type Config struct {
	N  int // total width in bits, 2..64
	ES int // exponent field size in bits, 0..4
}

// Standard configurations from the 2022 posit standard.
var (
	Std8  = Config{N: 8, ES: 2}
	Std16 = Config{N: 16, ES: 2}
	Std32 = Config{N: 32, ES: 2}
	Std64 = Config{N: 64, ES: 2}
)

// Validate reports whether the configuration is usable by this package.
func (c Config) Validate() error {
	if c.N < 2 || c.N > 64 {
		return fmt.Errorf("posit: width N=%d out of supported range [2,64]", c.N)
	}
	if c.ES < 0 || c.ES > 4 {
		return fmt.Errorf("posit: exponent size ES=%d out of supported range [0,4]", c.ES)
	}
	return nil
}

// Mask returns the bit mask covering the N bits of a posit, right
// aligned in a uint64.
func (c Config) Mask() uint64 {
	if c.N >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(c.N)) - 1
}

// SignMask returns the mask selecting the sign bit (the MSB).
func (c Config) SignMask() uint64 { return uint64(1) << uint(c.N-1) }

// NaR returns the bit pattern of Not-a-Real: the sign bit set and all
// other bits clear. NaR is its own negation and encodes every
// exceptional result (the posit analogue of both NaN and ±Inf).
func (c Config) NaR() uint64 { return c.SignMask() }

// MaxPosBits returns the bit pattern of maxpos, the largest finite
// positive posit: 0 followed by all ones.
func (c Config) MaxPosBits() uint64 { return c.Mask() >> 1 }

// MinPosBits returns the bit pattern of minpos, the smallest positive
// posit: all zeros except the LSB.
func (c Config) MinPosBits() uint64 { return 1 }

// MaxScale returns the base-2 exponent of maxpos: maxpos = 2^MaxScale,
// and minpos = 2^-MaxScale.
func (c Config) MaxScale() int { return (c.N - 2) << uint(c.ES) }

// Useed returns the regime base useed = 2^(2^ES) as a float64.
// Each unit of regime value scales a posit by useed.
func (c Config) Useed() float64 {
	return float64(uint64(1) << (uint64(1) << uint(c.ES)))
}

// Canon reduces bits to the canonical N-bit pattern (masking away any
// high garbage bits a caller may have left in the uint64).
func (c Config) Canon(bits uint64) uint64 { return bits & c.Mask() }

// Negate returns the two's complement of bits within N bits. Posit
// negation is exactly two's complement: Negate(encode(x)) == encode(-x)
// for every representable x, and NaR and zero are fixed points.
func (c Config) Negate(bits uint64) uint64 {
	return (-bits) & c.Mask()
}

// IsNeg reports whether the pattern has its sign bit set.
func (c Config) IsNeg(bits uint64) bool { return bits&c.SignMask() != 0 }

func (c Config) String() string {
	return fmt.Sprintf("posit<%d,%d>", c.N, c.ES)
}
