package detect

import (
	"math"
	"testing"

	"positres/internal/numfmt"
	"positres/internal/sdrbench"
)

func codec(t *testing.T, name string) numfmt.Codec {
	t.Helper()
	c, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smoothField(t *testing.T, n int) []float64 {
	t.Helper()
	f, err := sdrbench.Lookup("Hurricane/Pf48")
	if err != nil {
		t.Fatal(err)
	}
	return SmoothProxy(f, n, 1)
}

func TestPredictors(t *testing.T) {
	// A quadratic sequence is predicted exactly by the 3-point rule.
	data := []float64{1, 4, 9, 16, 25} // i²+… actually (i+1)²
	if got := predict(data, 4); got != 25 {
		t.Errorf("quadratic predict = %v", got)
	}
	if got := predict(data, 3); got != 16 {
		t.Errorf("quadratic predict = %v", got)
	}
	// Linear at i=2, constant at i=1.
	if got := predict(data, 2); got != 7 { // 2·4−1
		t.Errorf("linear predict = %v", got)
	}
	if got := predict(data, 1); got != 1 {
		t.Errorf("constant predict = %v", got)
	}
	if got := predict(data, 0); got != 0 {
		t.Errorf("boundary predict = %v", got)
	}
}

func TestCalibrationZeroFalsePositives(t *testing.T) {
	data := smoothField(t, 5000)
	d := New(1.0)
	d.Calibrate(data)
	if d.threshold <= 0 {
		t.Fatal("threshold not set")
	}
	for i := range data {
		if d.Check(data, i) {
			t.Fatalf("clean data flagged at index %d", i)
		}
	}
}

func TestDetectsSpecialsAndSpikes(t *testing.T) {
	data := smoothField(t, 2000)
	d := New(1.2)
	d.Calibrate(data)
	// NaN is always detectable.
	work := append([]float64(nil), data...)
	work[500] = math.NaN()
	if !d.Check(work, 500) {
		t.Error("NaN not flagged")
	}
	// A huge spike (IEEE exponent-flip scale) is flagged.
	work[500] = data[500] * math.Exp2(64)
	if !d.CheckWindow(work, 500) {
		t.Error("2^64 spike not flagged")
	}
	// A sub-threshold perturbation is not.
	work[500] = data[500] * (1 + 1e-7)
	if d.Check(work, 500) {
		t.Error("tiny perturbation flagged")
	}
	// Index 0 has no context.
	if d.Check(work, 0) {
		t.Error("index 0 should not flag")
	}
}

func TestSweepDeterministicAndShaped(t *testing.T) {
	data := smoothField(t, 8000)
	c := codec(t, "posit32")
	a, err := Sweep(c, data, 20, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(c, data, 20, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 32 || len(b) != 32 {
		t.Fatal("sweep width")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sweep not deterministic")
		}
		if a[i].Detected > a[i].Trials || a[i].DetectRate < 0 || a[i].DetectRate > 1 {
			t.Fatalf("outcome out of range: %+v", a[i])
		}
	}
	if _, err := Sweep(c, data[:4], 5, 1.2, 1); err == nil {
		t.Error("short field should error")
	}
	if _, err := Sweep(c, data, 0, 1.2, 1); err == nil {
		t.Error("zero trials should error")
	}
}

// TestDetectionAsymmetry: the finding this package exists for — on the
// same smooth field, IEEE upper-bit flips are detected essentially
// always (they are astronomically large), while posit upper-bit flips
// evade more often; but everything that evades is bounded, and the
// worst *undetected* posit error is no bigger than the worst
// undetected IEEE error.
func TestDetectionAsymmetry(t *testing.T) {
	data := smoothField(t, 8000)
	pOut, err := Sweep(codec(t, "posit32"), data, 40, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	iOut, err := Sweep(codec(t, "ieee32"), data, 40, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	upper := func(out []BitOutcome) (rate float64, worstMissed float64) {
		n := 0
		for _, o := range out {
			if o.Bit >= 24 && o.Bit <= 30 {
				rate += o.DetectRate
				n++
				if o.MaxMissedRelErr > worstMissed {
					worstMissed = o.MaxMissedRelErr
				}
			}
		}
		return rate / float64(n), worstMissed
	}
	iRate, iMissed := upper(iOut)
	pRate, pMissed := upper(pOut)
	// Not every IEEE upper-bit flip is caught: downward flips of
	// values already below the threshold stay small — the undetected
	// errors are exactly the ones with little impact.
	if iRate < 0.85 {
		t.Errorf("IEEE upper-bit detection rate %v, want > 0.85", iRate)
	}
	if !(pRate < iRate-0.05) {
		t.Errorf("posit upper-bit flips should evade clearly more: posit %v vs ieee %v", pRate, iRate)
	}
	if pMissed > math.Max(iMissed, 1) {
		t.Errorf("worst undetected posit error %v exceeds IEEE's %v", pMissed, iMissed)
	}
}

func TestSmoothProxyRespectsRange(t *testing.T) {
	f, err := sdrbench.Lookup("Nyx/temperature")
	if err != nil {
		t.Fatal(err)
	}
	data := SmoothProxy(f, 10000, 3)
	for i, v := range data {
		if v < f.Target.Min || v > f.Target.Max {
			t.Fatalf("element %d = %v outside [%v, %v]", i, v, f.Target.Min, f.Target.Max)
		}
	}
	// Smoothness: the typical step is small relative to the range.
	var sum float64
	for i := 1; i < len(data); i++ {
		sum += math.Abs(data[i] - data[i-1])
	}
	meanStep := sum / float64(len(data)-1)
	if meanStep > (f.Target.Max-f.Target.Min)/100 {
		t.Errorf("field not smooth: mean step %v", meanStep)
	}
	// Deterministic.
	again := SmoothProxy(f, 10000, 3)
	if data[777] != again[777] {
		t.Error("proxy not deterministic")
	}
}
