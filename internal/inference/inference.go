// Package inference reproduces the experiment of the paper's prior
// work (Alouani et al., "An Investigation on Inherent Robustness of
// Posit Data Representation", VLSID 2021 — the paper's ref [8]): a
// bit-flip campaign over the *weights* of a neural network, measuring
// the mean relative error distance (MRED) of the outputs and the
// classification accuracy drop, with the model stored as posits vs
// IEEE floats. The paper positions itself against this study ("does
// not go in depth regarding posit error in individual bit positions");
// this package provides the application-level counterpart so both
// views coexist.
package inference

import (
	"fmt"
	"math"

	"positres/internal/bitflip"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
)

// MLP is a two-layer perceptron: tanh hidden layer, linear output,
// argmax classification.
type MLP struct {
	In, Hidden, Out int // layer widths: input, hidden, output units
	// Row-major weights and biases (float64 master copy).
	W1 []float64 // Hidden × In
	B1 []float64 // Hidden
	W2 []float64 // Out × Hidden
	B2 []float64 // Out
}

// Dataset is a labelled sample set.
type Dataset struct {
	X [][]float64 // feature vectors
	Y []int       // class labels, parallel to X
}

// SyntheticClusters generates a deterministic Gaussian-blob
// classification problem: `classes` clusters in `dim` dimensions.
func SyntheticClusters(seed uint64, classes, dim, n int) *Dataset {
	rng := sdrbench.NewRNG(seed, "inference-data")
	// Well-separated cluster centres: one-hot corners scaled to 4 with
	// a small deterministic jitter (pairwise distance ≈ 5.7 against
	// unit noise → near-zero Bayes error).
	centres := make([][]float64, classes)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for d := range centres[c] {
			centres[c][d] = 0.5 * math.Sin(float64(c*dim+d)*2.399963)
			if d == c%dim {
				centres[c][d] += 4
			}
		}
	}
	ds := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := range ds.X {
		c := i % classes
		x := make([]float64, dim)
		for d := range x {
			x[d] = centres[c][d] + rng.NormFloat64()
		}
		ds.X[i] = x
		ds.Y[i] = c
	}
	return ds
}

// Train fits an MLP with plain SGD on softmax cross-entropy,
// deterministically.
func Train(seed uint64, ds *Dataset, hidden, epochs int, lr float64) *MLP {
	dim := len(ds.X[0])
	classes := 0
	for _, y := range ds.Y {
		if y+1 > classes {
			classes = y + 1
		}
	}
	rng := sdrbench.NewRNG(seed, "inference-init")
	m := &MLP{In: dim, Hidden: hidden, Out: classes}
	m.W1 = make([]float64, hidden*dim)
	m.B1 = make([]float64, hidden)
	m.W2 = make([]float64, classes*hidden)
	m.B2 = make([]float64, classes)
	for i := range m.W1 {
		m.W1[i] = 0.5 * rng.NormFloat64() / math.Sqrt(float64(dim))
	}
	for i := range m.W2 {
		m.W2[i] = 0.5 * rng.NormFloat64() / math.Sqrt(float64(hidden))
	}

	h := make([]float64, hidden)
	logits := make([]float64, classes)
	probs := make([]float64, classes)
	for epoch := 0; epoch < epochs; epoch++ {
		for i := range ds.X {
			x, y := ds.X[i], ds.Y[i]
			// Forward.
			for j := 0; j < hidden; j++ {
				s := m.B1[j]
				for d := 0; d < dim; d++ {
					s += m.W1[j*dim+d] * x[d]
				}
				h[j] = math.Tanh(s)
			}
			var max float64 = math.Inf(-1)
			for c := 0; c < classes; c++ {
				s := m.B2[c]
				for j := 0; j < hidden; j++ {
					s += m.W2[c*hidden+j] * h[j]
				}
				logits[c] = s
				if s > max {
					max = s
				}
			}
			var z float64
			for c := range probs {
				probs[c] = math.Exp(logits[c] - max)
				z += probs[c]
			}
			for c := range probs {
				probs[c] /= z
			}
			// Backward (softmax CE): dL/dlogit_c = p_c − 1{c==y}.
			for c := 0; c < classes; c++ {
				g := probs[c]
				if c == y {
					g--
				}
				m.B2[c] -= lr * g
				for j := 0; j < hidden; j++ {
					// Gradient through tanh for the hidden layer.
					m.W2[c*hidden+j] -= lr * g * h[j]
				}
			}
			for j := 0; j < hidden; j++ {
				var gh float64
				for c := 0; c < classes; c++ {
					g := probs[c]
					if c == y {
						g--
					}
					gh += g * m.W2[c*hidden+j]
				}
				gh *= 1 - h[j]*h[j]
				m.B1[j] -= lr * gh
				for d := 0; d < dim; d++ {
					m.W1[j*dim+d] -= lr * gh * x[d]
				}
			}
		}
	}
	return m
}

// Forward evaluates logits in float64.
func (m *MLP) Forward(x []float64) []float64 {
	h := make([]float64, m.Hidden)
	for j := 0; j < m.Hidden; j++ {
		s := m.B1[j]
		for d := 0; d < m.In; d++ {
			s += m.W1[j*m.In+d] * x[d]
		}
		h[j] = math.Tanh(s)
	}
	out := make([]float64, m.Out)
	for c := 0; c < m.Out; c++ {
		s := m.B2[c]
		for j := 0; j < m.Hidden; j++ {
			s += m.W2[c*m.Hidden+j] * h[j]
		}
		out[c] = s
	}
	return out
}

// Predict returns the argmax class.
func (m *MLP) Predict(x []float64) int { return argmax(m.Forward(x)) }

func argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// Accuracy evaluates classification accuracy in float64.
func (m *MLP) Accuracy(ds *Dataset) float64 {
	ok := 0
	for i := range ds.X {
		if m.Predict(ds.X[i]) == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(ds.X))
}

// Stored is an MLP whose parameters live as encoded bit patterns in a
// number format — the deployment model whose resident weights soft
// errors strike.
type Stored struct {
	codec numfmt.Codec
	m     MLP // geometry copy
	// weights holds every parameter's encoded pattern:
	// [W1..., B1..., W2..., B2...].
	weights []uint64
}

// Store encodes an MLP's parameters in the format.
func Store(m *MLP, codec numfmt.Codec) *Stored {
	s := &Stored{codec: codec, m: *m}
	all := flatParams(m)
	s.weights = make([]uint64, len(all))
	for i, v := range all {
		s.weights[i] = codec.Encode(v)
	}
	return s
}

func flatParams(m *MLP) []float64 {
	all := make([]float64, 0, len(m.W1)+len(m.B1)+len(m.W2)+len(m.B2))
	all = append(all, m.W1...)
	all = append(all, m.B1...)
	all = append(all, m.W2...)
	all = append(all, m.B2...)
	return all
}

// NumWeights returns the parameter count.
func (s *Stored) NumWeights() int { return len(s.weights) }

// FlipWeightBit corrupts one stored parameter.
func (s *Stored) FlipWeightBit(idx, bit int) {
	s.weights[idx] = bitflip.Flip(s.weights[idx], bit) & maskOf(s.codec)
}

// Restore repairs parameter idx from the float64 master.
func (s *Stored) Restore(m *MLP, idx int) {
	s.weights[idx] = s.codec.Encode(masterParam(m, idx))
}

func masterParam(m *MLP, idx int) float64 {
	switch {
	case idx < len(m.W1):
		return m.W1[idx]
	case idx < len(m.W1)+len(m.B1):
		return m.B1[idx-len(m.W1)]
	case idx < len(m.W1)+len(m.B1)+len(m.W2):
		return m.W2[idx-len(m.W1)-len(m.B1)]
	default:
		return m.B2[idx-len(m.W1)-len(m.B1)-len(m.W2)]
	}
}

func maskOf(c numfmt.Codec) uint64 {
	if c.Width() >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(c.Width()) - 1
}

// param decodes parameter idx.
func (s *Stored) param(idx int) float64 { return s.codec.Decode(s.weights[idx]) }

// Forward evaluates the stored network (weights decoded per use,
// arithmetic in float64 — the mixed-precision deployment model).
func (s *Stored) Forward(x []float64) []float64 {
	m := &s.m
	offB1 := len(m.W1)
	offW2 := offB1 + len(m.B1)
	offB2 := offW2 + len(m.W2)
	h := make([]float64, m.Hidden)
	for j := 0; j < m.Hidden; j++ {
		sum := s.param(offB1 + j)
		for d := 0; d < m.In; d++ {
			sum += s.param(j*m.In+d) * x[d]
		}
		h[j] = math.Tanh(sum)
	}
	out := make([]float64, m.Out)
	for c := 0; c < m.Out; c++ {
		sum := s.param(offB2 + c)
		for j := 0; j < m.Hidden; j++ {
			sum += s.param(offW2+c*m.Hidden+j) * h[j]
		}
		out[c] = sum
	}
	return out
}

// Accuracy evaluates the stored network.
func (s *Stored) Accuracy(ds *Dataset) float64 {
	ok := 0
	for i := range ds.X {
		if argmax(s.Forward(ds.X[i])) == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(ds.X))
}

// FlipImpact aggregates a weight-bit-flip campaign at one bit position
// (the Alouani-style measurement).
type FlipImpact struct {
	Bit          int     // flipped weight-bit position, 0 = LSB
	Trials       int     // injections aggregated at this position
	MeanMRED     float64 // mean relative error distance of the logits
	AccuracyDrop float64 // clean accuracy − mean faulty accuracy
	Misclass     float64 // fraction of trials that changed ≥1 prediction
}

// WeightFlipCampaign flips random weights at every bit position,
// trialsPerBit times each, measuring logit MRED over a probe set and
// the accuracy drop over the evaluation set.
func WeightFlipCampaign(m *MLP, codec numfmt.Codec, ds *Dataset, trialsPerBit int, seed uint64) []FlipImpact {
	s := Store(m, codec)
	cleanAcc := s.Accuracy(ds)
	// Probe subset for MRED (logit comparison is O(n·model)).
	probeN := len(ds.X)
	if probeN > 64 {
		probeN = 64
	}
	cleanLogits := make([][]float64, probeN)
	for i := 0; i < probeN; i++ {
		cleanLogits[i] = s.Forward(ds.X[i])
	}

	width := codec.Width()
	out := make([]FlipImpact, width)
	for bit := 0; bit < width; bit++ {
		imp := &out[bit]
		imp.Bit = bit
		imp.Trials = trialsPerBit
		var sumMRED, sumAcc float64
		changed := 0
		for trial := 0; trial < trialsPerBit; trial++ {
			rng := sdrbench.NewRNG(seed, "mlflip", codec.Name(), fmt.Sprint(bit), fmt.Sprint(trial))
			idx := rng.Intn(s.NumWeights())
			s.FlipWeightBit(idx, bit)

			var mred float64
			var n int
			anyChange := false
			for i := 0; i < probeN; i++ {
				faulty := s.Forward(ds.X[i])
				if argmax(faulty) != argmax(cleanLogits[i]) {
					anyChange = true
				}
				for c := range faulty {
					ref := cleanLogits[i][c]
					if ref != 0 {
						d := math.Abs(faulty[c]-ref) / math.Abs(ref)
						if !math.IsNaN(d) && !math.IsInf(d, 0) {
							mred += d
							n++
						} else {
							mred += 1e30 // catastrophic logit
							n++
						}
					}
				}
			}
			if n > 0 {
				sumMRED += mred / float64(n)
			}
			sumAcc += s.Accuracy(ds)
			if anyChange {
				changed++
			}
			s.Restore(m, idx)
		}
		imp.MeanMRED = sumMRED / float64(trialsPerBit)
		imp.AccuracyDrop = cleanAcc - sumAcc/float64(trialsPerBit)
		imp.Misclass = float64(changed) / float64(trialsPerBit)
	}
	return out
}
