// Package kernels provides HPC computation kernels whose working
// arrays are *stored* in an arbitrary number format (posit or IEEE,
// any width) — the storage model of the paper's fault study, where
// soft errors strike data at rest (§3.3) and computation happens at
// higher precision. It includes BLAS-1/2 kernels, Jacobi and
// conjugate-gradient solvers on a 1-D Poisson problem, mid-solve fault
// injection, and optional SEC-DED protection of the stored words —
// closing the loop from the paper's per-bit error analysis to its
// motivating question: what does a flip do to a running application
// (cf. the paper's refs [12, 20, 13]), and does memory protection
// absorb it (refs [18, 24, 35])?
package kernels

import (
	"fmt"

	"positres/internal/bitflip"
	"positres/internal/ecc"
	"positres/internal/numfmt"
)

// Array is a vector stored in a number format: every element lives as
// its encoded bit pattern, so injected bit flips corrupt exactly what
// a memory fault would. Loads decode; stores round into the format
// (accumulating the format's rounding error realistically).
type Array struct {
	codec numfmt.Codec
	bits  []uint64

	// prot, when non-nil, shadows bits with SEC-DED codewords
	// (32-bit formats only). Loads decode through the ECC layer and
	// repair single-bit upsets.
	prot *ecc.ProtectedArray
	// Corrected counts ECC repairs observed during loads.
	Corrected int
	// Uncorrectable counts double-bit detections during loads.
	Uncorrectable int
}

// NewArray stores data in the given format.
func NewArray(codec numfmt.Codec, data []float64) *Array {
	a := &Array{codec: codec, bits: make([]uint64, len(data))}
	for i, v := range data {
		a.bits[i] = codec.Encode(v)
	}
	return a
}

// NewProtectedArray stores data under SEC-DED protection. The format
// must be 32 bits wide (the Hamming(39,32) code protects one word per
// element).
func NewProtectedArray(codec numfmt.Codec, data []float64) (*Array, error) {
	if codec.Width() != 32 {
		return nil, fmt.Errorf("kernels: SEC-DED protection requires a 32-bit format, got %s (%d bits)",
			codec.Name(), codec.Width())
	}
	a := &Array{codec: codec}
	words := make([]uint32, len(data))
	for i, v := range data {
		words[i] = uint32(codec.Encode(v))
	}
	a.prot = ecc.Protect(words)
	return a, nil
}

// Len returns the element count.
func (a *Array) Len() int {
	if a.prot != nil {
		return a.prot.Len()
	}
	return len(a.bits)
}

// Codec returns the storage format.
func (a *Array) Codec() numfmt.Codec { return a.codec }

// Load decodes element i (repairing it first when protected).
func (a *Array) Load(i int) float64 {
	if a.prot != nil {
		w, st := a.prot.Load(i)
		switch st {
		case ecc.Corrected:
			a.Corrected++
		case ecc.Uncorrectable:
			a.Uncorrectable++
		}
		return a.codec.Decode(uint64(w))
	}
	return a.codec.Decode(a.bits[i])
}

// Store rounds v into the format at element i.
func (a *Array) Store(i int, v float64) {
	if a.prot != nil {
		a.prot.Store(i, uint32(a.codec.Encode(v)))
		return
	}
	a.bits[i] = a.codec.Encode(v)
}

// Bits returns the stored pattern of element i (for protected arrays,
// the repaired data word without its ECC check bits).
func (a *Array) Bits(i int) uint64 {
	if a.prot != nil {
		w, _ := a.prot.Load(i)
		return uint64(w)
	}
	return a.bits[i]
}

// InjectBitFlip flips bit pos of element i's stored word. For
// protected arrays the flip lands in the 39-bit codeword (pos 0..38),
// modelling a fault in ECC DRAM; for bare arrays pos addresses the
// format's data bits directly.
func (a *Array) InjectBitFlip(i, pos int) {
	if a.prot != nil {
		a.prot.InjectFault(i, pos)
		return
	}
	a.bits[i] = bitflip.Flip(a.bits[i], pos) & maskOf(a.codec)
}

func maskOf(c numfmt.Codec) uint64 {
	if c.Width() >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(c.Width()) - 1
}

// Snapshot returns a copy of the stored bit patterns (data words; for
// protected arrays, the repaired words without check bits) — the raw
// material of a checkpoint.
func (a *Array) Snapshot() []uint64 {
	out := make([]uint64, a.Len())
	for i := range out {
		out[i] = a.Bits(i)
	}
	return out
}

// RestoreSnapshot overwrites the array's contents from a snapshot
// taken on an array of the same length and format.
func (a *Array) RestoreSnapshot(words []uint64) error {
	if len(words) != a.Len() {
		return fmt.Errorf("kernels: snapshot length %d != array length %d", len(words), a.Len())
	}
	for i, w := range words {
		if a.prot != nil {
			a.prot.Store(i, uint32(w))
		} else {
			a.bits[i] = w & maskOf(a.codec)
		}
	}
	return nil
}
