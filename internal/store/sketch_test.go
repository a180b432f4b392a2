package store

import (
	"math"
	"math/rand"
	"testing"
)

// sketchQuantileGrid is the probe set every accuracy test walks.
var sketchQuantileGrid = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// adversarialSets builds the distributions the satellite asks for:
// decades-spanning lognormal (posit error tails), duplicate-heavy
// (quantized errors), and a mix of negatives and exact zeros.
func adversarialSets() map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	lognormal := make([]float64, 5000)
	for i := range lognormal {
		lognormal[i] = math.Exp(rng.NormFloat64()*8 - 10) // ~e⁻³⁴ … e¹⁴
	}
	duplicates := make([]float64, 5000)
	levels := []float64{1e-12, 1e-12, 1e-12, 3.5e-4, 3.5e-4, 0.125, 7e9}
	for i := range duplicates {
		duplicates[i] = levels[rng.Intn(len(levels))]
	}
	signed := make([]float64, 5000)
	for i := range signed {
		switch rng.Intn(4) {
		case 0:
			signed[i] = 0
		case 1:
			signed[i] = -math.Exp(rng.NormFloat64() * 5)
		default:
			signed[i] = math.Exp(rng.NormFloat64() * 5)
		}
	}
	return map[string][]float64{
		"lognormal":  lognormal,
		"duplicates": duplicates,
		"signed":     signed,
	}
}

// TestSketchErrorBounds pins the accuracy guarantee: on each
// adversarial distribution, every probed quantile lands within
// SketchAlpha relative error of the exact order statistic at the
// sketch's rank convention. Exact zeros must come back as exact zeros.
func TestSketchErrorBounds(t *testing.T) {
	for name, data := range adversarialSets() {
		s := NewSketch()
		for _, x := range data {
			s.Add(x)
		}
		if s.Count() != uint64(len(data)) {
			t.Fatalf("%s: count %d, want %d", name, s.Count(), len(data))
		}
		for _, q := range sketchQuantileGrid {
			got := s.Quantile(q)
			want := exactRank(data, q)
			if want == 0 {
				if got != 0 {
					t.Errorf("%s q=%v: %v, want exact 0", name, q, got)
				}
				continue
			}
			if got*want <= 0 {
				t.Errorf("%s q=%v: %v has wrong sign, want %v", name, q, got, want)
				continue
			}
			if math.Abs(got-want) > 1.0001*SketchAlpha*math.Abs(want) {
				t.Errorf("%s q=%v: %v, want %v within %v%%", name, q, got, want, 100*SketchAlpha)
			}
		}
	}
}

// TestSketchSerializationRoundTrip pins the footer encoding: a decoded
// sketch answers every probe bit-identically to the original.
func TestSketchSerializationRoundTrip(t *testing.T) {
	for name, data := range adversarialSets() {
		s := NewSketch()
		for _, x := range data {
			s.Add(x)
		}
		c := &cursor{buf: appendSketch(nil, s)}
		back := readSketch(c)
		if c.err != nil {
			t.Fatalf("%s: %v", name, c.err)
		}
		if c.off != len(c.buf) {
			t.Fatalf("%s: %d trailing bytes", name, len(c.buf)-c.off)
		}
		if back.Count() != s.Count() {
			t.Fatalf("%s: count %d, want %d", name, back.Count(), s.Count())
		}
		for _, q := range sketchQuantileGrid {
			g, w := back.Quantile(q), s.Quantile(q)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s q=%v: decoded %v, original %v", name, q, g, w)
			}
		}
	}
}

// TestSketchCollapse drives the store past maxSketchBuckets and checks
// the bound holds, no values are lost, and the upper quantiles — the
// ones the figures read — keep full accuracy.
func TestSketchCollapse(t *testing.T) {
	s := NewSketch()
	n := maxSketchBuckets + 1000
	// γ^(2i) guarantees one distinct bucket per value (spacing two keys
	// absorbs any boundary rounding), so the store must overflow.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Pow(sketchGamma, 2*float64(i))
		s.Add(vals[i])
	}
	if len(s.pos.buckets) > maxSketchBuckets {
		t.Fatalf("%d buckets, cap %d", len(s.pos.buckets), maxSketchBuckets)
	}
	if !s.pos.hasFloor {
		t.Fatal("overflowed store has no collapse floor")
	}
	if s.Count() != uint64(n) {
		t.Fatalf("count %d after collapse, want %d", s.Count(), n)
	}
	// The top decile is far above the collapse floor; accuracy there
	// must be untouched.
	for _, q := range []float64{0.9, 0.99, 1} {
		got, want := s.Quantile(q), exactRank(vals, q)
		if math.Abs(got-want) > 1.0001*SketchAlpha*math.Abs(want) {
			t.Errorf("q=%v after collapse: %v, want %v", q, got, want)
		}
	}
}

// TestSketchEdgeCases pins the empty sketch, the all-zero sketch, and
// quantile clamping.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch quantile is not NaN")
	}
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	if s.Count() != 0 {
		t.Errorf("non-finite values counted: %d", s.Count())
	}
	s.Add(0)
	s.Add(0)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("all-zero median %v", got)
	}
	s.Add(-3)
	s.Add(5)
	if got := s.Quantile(-1); got >= 0 {
		t.Errorf("q<0 should clamp to the minimum, got %v", got)
	}
	hi := s.Quantile(2)
	if math.Abs(hi-5) > 1.0001*SketchAlpha*5 {
		t.Errorf("q>1 should clamp to the maximum, got %v", hi)
	}
}
