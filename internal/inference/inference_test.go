package inference

import (
	"math"
	"testing"

	"positres/internal/numfmt"
)

func codec(t *testing.T, name string) numfmt.Codec {
	t.Helper()
	c, err := numfmt.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func trainSmall(t *testing.T) (*MLP, *Dataset) {
	t.Helper()
	ds := SyntheticClusters(1, 3, 4, 300)
	m := Train(1, ds, 12, 30, 0.05)
	return m, ds
}

func TestSyntheticClusters(t *testing.T) {
	ds := SyntheticClusters(1, 3, 4, 300)
	if len(ds.X) != 300 || len(ds.Y) != 300 || len(ds.X[0]) != 4 {
		t.Fatal("shape")
	}
	counts := map[int]int{}
	for _, y := range ds.Y {
		counts[y]++
	}
	if len(counts) != 3 || counts[0] != 100 {
		t.Fatalf("class balance: %v", counts)
	}
	// Determinism.
	ds2 := SyntheticClusters(1, 3, 4, 300)
	if ds.X[5][2] != ds2.X[5][2] {
		t.Fatal("not deterministic")
	}
	ds3 := SyntheticClusters(2, 3, 4, 300)
	if ds.X[5][2] == ds3.X[5][2] {
		t.Fatal("seed ignored")
	}
}

func TestTrainReachesHighAccuracy(t *testing.T) {
	m, ds := trainSmall(t)
	acc := m.Accuracy(ds)
	if acc < 0.95 {
		t.Fatalf("training accuracy %v, want >= 0.95", acc)
	}
	// Deterministic training.
	m2 := Train(1, ds, 12, 30, 0.05)
	if m.W1[3] != m2.W1[3] || m.W2[1] != m2.W2[1] {
		t.Fatal("training not deterministic")
	}
}

func TestStoredMatchesMaster(t *testing.T) {
	m, ds := trainSmall(t)
	for _, name := range []string{"posit32", "ieee32", "ieee64"} {
		s := Store(m, codec(t, name))
		// 32-bit storage rounds weights, but accuracy should be intact
		// and logits close.
		if acc, master := s.Accuracy(ds), m.Accuracy(ds); math.Abs(acc-master) > 0.02 {
			t.Errorf("%s: accuracy %v vs master %v", name, acc, master)
		}
		l := s.Forward(ds.X[0])
		lm := m.Forward(ds.X[0])
		for c := range l {
			if math.Abs(l[c]-lm[c]) > 1e-3*math.Max(1, math.Abs(lm[c])) {
				t.Errorf("%s logit %d: %v vs %v", name, c, l[c], lm[c])
			}
		}
	}
}

func TestFlipAndRestore(t *testing.T) {
	m, ds := trainSmall(t)
	s := Store(m, codec(t, "posit32"))
	before := s.Forward(ds.X[0])
	s.FlipWeightBit(3, 30)
	after := s.Forward(ds.X[0])
	same := true
	for c := range before {
		if before[c] != after[c] {
			same = false
		}
	}
	if same {
		t.Error("flip had no effect on logits")
	}
	s.Restore(m, 3)
	restored := s.Forward(ds.X[0])
	for c := range before {
		if before[c] != restored[c] {
			t.Fatal("restore did not undo the flip")
		}
	}
	if s.NumWeights() != len(m.W1)+len(m.B1)+len(m.W2)+len(m.B2) {
		t.Error("weight count")
	}
}

// TestWeightFlipCampaignShape: the campaign sweeps every bit with the
// requested trial count and produces finite aggregates.
func TestWeightFlipCampaignShape(t *testing.T) {
	m, ds := trainSmall(t)
	imps := WeightFlipCampaign(m, codec(t, "posit16"), ds, 4, 9)
	if len(imps) != 16 {
		t.Fatalf("impacts: %d", len(imps))
	}
	for _, imp := range imps {
		if imp.Trials != 4 {
			t.Fatal("trials")
		}
		if math.IsNaN(imp.MeanMRED) || imp.Misclass < 0 || imp.Misclass > 1 {
			t.Fatalf("aggregate: %+v", imp)
		}
	}
	// Deterministic.
	imps2 := WeightFlipCampaign(m, codec(t, "posit16"), ds, 4, 9)
	if imps[10] != imps2[10] {
		t.Fatal("campaign not deterministic")
	}
}

// TestAlouaniFinding: posit-stored models suffer smaller worst-case
// MRED and accuracy drops than IEEE-stored models under the same
// weight-flip campaign — the prior work's headline that the paper's
// §5.3 confirms.
func TestAlouaniFinding(t *testing.T) {
	m, ds := trainSmall(t)
	pImps := WeightFlipCampaign(m, codec(t, "posit32"), ds, 6, 9)
	iImps := WeightFlipCampaign(m, codec(t, "ieee32"), ds, 6, 9)
	worst := func(imps []FlipImpact) (mred, drop float64) {
		for _, im := range imps {
			if im.MeanMRED > mred {
				mred = im.MeanMRED
			}
			if im.AccuracyDrop > drop {
				drop = im.AccuracyDrop
			}
		}
		return
	}
	pm, pd := worst(pImps)
	im, id := worst(iImps)
	if !(im > 10*pm) {
		t.Errorf("worst MRED: posit %g, ieee %g — expected ieee ≫ posit", pm, im)
	}
	// Accuracy drops: the IEEE model should fare no better than the
	// posit model at its worst bit.
	if pd > id+0.05 {
		t.Errorf("worst accuracy drop: posit %g, ieee %g", pd, id)
	}
}
