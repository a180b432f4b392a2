package core

import (
	"math"
	"sort"
)

// SDC threshold analysis: resilience studies summarize campaigns as
// P(relative error > τ) — the probability a flip at a given bit causes
// silent data corruption beyond an application's tolerance. This
// complements the paper's mean-error curves with tail behaviour.

// SDCPoint is the corruption probability at one bit position.
type SDCPoint struct {
	Bit  int     // bit position, 0 = LSB
	Prob float64 // fraction of trials exceeding the tolerance tau
}

// SDCProbability returns, per bit position, the fraction of trials
// whose relative error exceeds tau. Catastrophic trials (NaN/Inf/NaR
// outcomes) always count as corrupted.
func SDCProbability(trials []Trial, tau float64) []SDCPoint {
	type acc struct{ bad, total int }
	byBit := map[int]*acc{}
	for _, tr := range trials {
		a := byBit[tr.Bit]
		if a == nil {
			a = &acc{}
			byBit[tr.Bit] = a
		}
		a.total++
		if tr.Catastrophic || tr.RelErr > tau {
			a.bad++
		}
	}
	bits := make([]int, 0, len(byBit))
	for b := range byBit {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	out := make([]SDCPoint, 0, len(bits))
	for _, b := range bits {
		a := byBit[b]
		out = append(out, SDCPoint{Bit: b, Prob: float64(a.bad) / float64(a.total)})
	}
	return out
}

// OverallSDCRate returns the campaign-wide corruption probability at
// threshold tau (a uniformly random bit of a uniformly random trial).
func OverallSDCRate(trials []Trial, tau float64) float64 {
	if len(trials) == 0 {
		return math.NaN()
	}
	bad := 0
	for _, tr := range trials {
		if tr.Catastrophic || tr.RelErr > tau {
			bad++
		}
	}
	return float64(bad) / float64(len(trials))
}
