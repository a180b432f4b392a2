// Package detect implements a lightweight impact-driven silent-data-
// corruption detector in the style of the paper's ref [19] (Di &
// Cappello, "Adaptive Impact-Driven Detection of Silent Data
// Corruption for HPC Applications"): each element of a spatially
// smooth field is predicted from its preceding neighbors by low-order
// extrapolation, and an observed value whose residual exceeds a
// calibrated threshold is flagged.
//
// The package closes a loop the paper opens in §2: how *detectable*
// are the flips each format produces? IEEE-754 upper-bit flips are
// enormous and trivially caught; posit flips are orders of magnitude
// smaller — they evade impact-driven detection more often, but the
// errors that evade are precisely the ones that matter less.
package detect

import (
	"fmt"
	"math"

	"positres/internal/bitflip"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
)

// Detector is an impact-driven outlier detector over 1-D fields.
type Detector struct {
	// Theta scales the calibrated threshold: detection fires when
	// |observed − predicted| > Theta × maxCleanResidual. Theta ≥ 1
	// guarantees zero false positives on the calibration data.
	Theta float64

	threshold float64
}

// New returns a detector with the given threshold multiplier.
func New(theta float64) *Detector { return &Detector{Theta: theta} }

// predict extrapolates element i from its predecessors: quadratic
// (three-point) where possible, degrading to linear and constant at
// the boundary.
func predict(data []float64, i int) float64 {
	switch {
	case i >= 3:
		return 3*data[i-1] - 3*data[i-2] + data[i-3]
	case i == 2:
		return 2*data[i-1] - data[i-2]
	case i == 1:
		return data[0]
	}
	return 0
}

// Calibrate scans clean data and records the worst prediction
// residual; Check then flags residuals above Theta × that.
func (d *Detector) Calibrate(clean []float64) {
	worst := 0.0
	for i := 1; i < len(clean); i++ {
		r := math.Abs(clean[i] - predict(clean, i))
		if r > worst {
			worst = r
		}
	}
	d.threshold = d.Theta * worst
}

// Check reports whether element i of data looks corrupted.
func (d *Detector) Check(data []float64, i int) bool {
	if i == 0 {
		return false // no predecessor context
	}
	v := data[i]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return true // special values are always detectable
	}
	return math.Abs(v-predict(data, i)) > d.threshold
}

// CheckWindow reports whether a corruption at index i is detectable,
// considering that the faulty value also perturbs the predictions of
// the following elements.
func (d *Detector) CheckWindow(data []float64, i int) bool {
	hi := i + 3
	if hi > len(data) {
		hi = len(data)
	}
	for j := i; j < hi; j++ {
		if d.Check(data, j) {
			return true
		}
	}
	return false
}

// BitOutcome aggregates the detection sweep at one bit position.
type BitOutcome struct {
	Bit    int // bit position, 0 = LSB
	Trials int // injections swept at this position
	// Detected counts injections the detector flagged.
	Detected int
	// DetectRate = Detected / Trials.
	DetectRate float64
	// MeanMissedRelErr is the mean relative error of the UNDETECTED
	// injections — the residual SDC that slips through.
	MeanMissedRelErr float64
	// MaxMissedRelErr bounds the worst undetected corruption.
	MaxMissedRelErr float64
}

// Sweep injects trialsPerBit flips at every bit position of the format
// into the (smooth) field and reports per-bit detectability plus the
// damage of what escapes. The detector is calibrated on the clean data
// with the given theta. Deterministic in seed.
func Sweep(codec numfmt.Codec, clean []float64, trialsPerBit int, theta float64, seed uint64) ([]BitOutcome, error) {
	if len(clean) < 8 {
		return nil, fmt.Errorf("detect: field too short")
	}
	if trialsPerBit <= 0 {
		return nil, fmt.Errorf("detect: trialsPerBit must be positive")
	}
	det := New(theta)
	det.Calibrate(clean)

	width := codec.Width()
	out := make([]BitOutcome, width)
	work := make([]float64, len(clean))
	copy(work, clean)
	for bit := 0; bit < width; bit++ {
		o := &out[bit]
		o.Bit = bit
		o.Trials = trialsPerBit
		var missedSum float64
		var missedN int
		for trial := 0; trial < trialsPerBit; trial++ {
			rng := sdrbench.NewRNG(seed, "detect", codec.Name(), fmt.Sprint(bit), fmt.Sprint(trial))
			idx := 1 + rng.Intn(len(clean)-1)
			orig := clean[idx]
			if orig == 0 {
				continue
			}
			faulty := codec.Decode(bitflip.Flip(codec.Encode(orig), bit))
			work[idx] = faulty
			if det.CheckWindow(work, idx) {
				o.Detected++
			} else if !math.IsNaN(faulty) {
				rel := math.Abs(orig-faulty) / math.Abs(orig)
				missedSum += rel
				missedN++
				if rel > o.MaxMissedRelErr {
					o.MaxMissedRelErr = rel
				}
			}
			work[idx] = orig
		}
		o.DetectRate = float64(o.Detected) / float64(trialsPerBit)
		if missedN > 0 {
			o.MeanMissedRelErr = missedSum / float64(missedN)
		}
	}
	return out, nil
}

// SmoothProxy synthesizes a spatially smooth 1-D field whose value
// range matches a Table 1 field — the detector operates on smooth
// physical fields, while the sdrbench generators are only
// distribution-faithful (spatial correlation does not affect bit-flip
// error, but it does affect neighbor-prediction detection; see
// DESIGN.md §2). The proxy mixes three low-frequency modes spanning
// [min, max] plus a small rough component.
func SmoothProxy(f sdrbench.Field, n int, seed uint64) []float64 {
	rng := sdrbench.NewRNG(seed, "smooth", f.Dataset, f.Name)
	lo, hi := f.Target.Min, f.Target.Max
	if hi <= lo {
		hi = lo + 1
	}
	mid := (hi + lo) / 2
	amp := (hi - lo) / 2
	p1 := rng.Float64() * 2 * math.Pi
	p2 := rng.Float64() * 2 * math.Pi
	p3 := rng.Float64() * 2 * math.Pi
	out := make([]float64, n)
	for i := range out {
		x := float64(i) / float64(n)
		v := mid +
			0.55*amp*math.Sin(2*math.Pi*3*x+p1) +
			0.3*amp*math.Sin(2*math.Pi*7*x+p2) +
			0.1*amp*math.Sin(2*math.Pi*17*x+p3) +
			0.005*amp*rng.NormFloat64()
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	return out
}
