package posit

import "math"

// DecodeFloat64 converts a posit bit pattern to float64.
//
// Decoding is tiered by configuration (docs/ARCHITECTURE.md has the
// full table): the standard 8- and 16-bit posits are a single lookup
// in a table precomputed at init (see lut.go); the standard 32- and
// 64-bit posits take the branchless CLZ fast path (see clz.go), whose
// table would be impossibly large; every other configuration takes
// the generic field-scan path. All paths agree bit for bit —
// lut_test.go and clz_test.go prove it — so callers never observe
// which one served them.
//
// Zero decodes to +0 and NaR to NaN.
func DecodeFloat64(cfg Config, bitsIn uint64) float64 {
	switch cfg {
	case Std8:
		return decodeLUT8[bitsIn&0xFF]
	case Std16:
		return decodeLUT16[bitsIn&0xFFFF]
	case Std32, Std64:
		return DecodeFloat64CLZ(cfg, bitsIn)
	}
	return DecodeFloat64Generic(cfg, bitsIn)
}

// DecodeFloat64Generic is the table-free decode path, valid for every
// configuration. It is exported (rather than folded into DecodeFloat64)
// so the LUT equivalence tests and the decode benchmarks of
// `make bench-go` can measure the pre-LUT baseline against the table
// lookup and the CLZ decoder.
//
// Decoding follows the classical two's-complement method: negative
// patterns are negated, the magnitude fields are read, and the value is
// (1 + f) × 2^((r << ES) + e). The result is exact for N <= 32; for
// posit64 the up-to-59-bit fraction incurs a single float64 rounding.
func DecodeFloat64Generic(cfg Config, bitsIn uint64) float64 {
	b := cfg.Canon(bitsIn)
	if b == 0 {
		return 0
	}
	if b == cfg.NaR() {
		return math.NaN()
	}
	neg := cfg.IsNeg(b)
	if neg {
		b = cfg.Negate(b)
	}
	f := DecodeFields(cfg, b)
	h := (f.R << uint(cfg.ES)) + int(f.Exp)
	// value = (2^FracLen + Frac) × 2^(h - FracLen)
	sig := (uint64(1) << uint(f.FracLen)) + f.Frac
	v := math.Ldexp(float64(sig), h-f.FracLen)
	if neg {
		v = -v
	}
	return v
}

// DecodeEq2 evaluates eq. (2) of the paper (the raw-bit decode formula
// of the 2022 posit standard, generalized from es=2 to any es):
//
//	p = ((1 − 3s) + f) × 2^((1 − 2s) × ((r << es) + e + s))
//
// where s, r, e and f are read directly from the two's-complement bit
// pattern with no negation step. It must agree exactly with
// DecodeFloat64 on every pattern; the test suite asserts this, making
// the two decoders independent cross-checks of each other.
func DecodeEq2(cfg Config, bitsIn uint64) float64 {
	b := cfg.Canon(bitsIn)
	if b == 0 {
		return 0
	}
	if b == cfg.NaR() {
		return math.NaN()
	}
	f := DecodeFields(cfg, b)
	s := int(f.Sign)
	scale := (1 - 2*s) * ((f.R << uint(cfg.ES)) + int(f.Exp) + s)
	// (1-3s) + f as an exact dyadic rational: numerator over 2^FracLen.
	num := int64(1-3*s)<<uint(f.FracLen) + int64(f.Frac)
	return math.Ldexp(float64(num), scale-f.FracLen)
}

// Float64ToNearest is a convenience round trip: the float64 value of
// the posit nearest to x.
func Float64ToNearest(cfg Config, x float64) float64 {
	return DecodeFloat64(cfg, EncodeFloat64(cfg, x))
}
