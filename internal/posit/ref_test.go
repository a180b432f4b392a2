package posit

// Reference implementations used only by tests: an exact rational
// rounder that implements the standard's rounding rule (saturate, then
// round-to-nearest-even on the bit stream) straight from a big.Rat,
// independently of the integer tricks in arith.go.

import (
	"math/big"
)

var ratTwo = big.NewRat(2, 1)

// pow2Rat returns 2^e as a big.Rat for any integer e.
func pow2Rat(e int) *big.Rat {
	r := new(big.Rat)
	if e >= 0 {
		r.SetInt(new(big.Int).Lsh(big.NewInt(1), uint(e)))
	} else {
		r.SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(-e)))
	}
	return r
}

// refRoundRat rounds the exact rational v to a posit using the
// standard rule, producing the bit pattern. It mirrors the definition
// in the 2022 standard: write |v| = 2^h × (1 + f), f ∈ [0,1); emit the
// regime/exponent/fraction bit stream; truncate to N-1 payload bits;
// round to nearest, ties to even, using guard and sticky; saturate so
// nonzero values never become 0 or NaR.
func refRoundRat(cfg Config, v *big.Rat) uint64 {
	sign := v.Sign()
	if sign == 0 {
		return 0
	}
	av := new(big.Rat).Abs(v)

	// h = floor(log2 av): estimate from numerator/denominator bit
	// lengths, then correct by comparison.
	h := av.Num().BitLen() - av.Denom().BitLen()
	for av.Cmp(pow2Rat(h)) < 0 {
		h--
	}
	for av.Cmp(pow2Rat(h+1)) >= 0 {
		h++
	}

	// t = av / 2^h - 1 ∈ [0, 1): its first 64 binary digits are
	// floor(t × 2^64), and a nonzero remainder is the sticky bit.
	num := new(big.Int).Set(av.Num())
	den := new(big.Int).Set(av.Denom())
	if h >= 0 {
		den.Lsh(den, uint(h))
	} else {
		num.Lsh(num, uint(-h))
	}
	num.Sub(num, den)
	num.Lsh(num, 64)
	q, rem := num.QuoRem(num, den, new(big.Int))
	tail := q.Uint64()
	sticky := rem.Sign() != 0

	p := assemble(cfg, h, tail, sticky)
	if sign < 0 {
		p = cfg.Negate(p)
	}
	return p
}

// ratFromPosit returns the exact rational value of a posit pattern.
func ratFromPosit(cfg Config, bits uint64) *big.Rat {
	b := cfg.Canon(bits)
	if b == 0 {
		return new(big.Rat)
	}
	if b == cfg.NaR() {
		panic("ratFromPosit: NaR has no rational value")
	}
	neg := cfg.IsNeg(b)
	if neg {
		b = cfg.Negate(b)
	}
	f := DecodeFields(cfg, b)
	h := (f.R << uint(cfg.ES)) + int(f.Exp)
	sig := new(big.Int).SetUint64((uint64(1) << uint(f.FracLen)) + f.Frac)
	v := new(big.Rat).SetInt(sig)
	v.Mul(v, pow2Rat(h-f.FracLen))
	if neg {
		v.Neg(v)
	}
	return v
}
