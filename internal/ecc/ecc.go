// Package ecc implements the single-error-correct / double-error-
// detect (SEC-DED) Hamming code that memory systems use against the
// soft errors the paper studies (§3.3; its references [18, 24, 35]).
// A 32-bit data word is stored as a 39-bit codeword: 6 Hamming parity
// bits plus one overall parity bit. Any single bit flip — in data or
// parity — is corrected; any double flip is detected.
//
// The package exists to close the paper's loop: the campaign engine
// can inject the very same faults into protected arrays and confirm
// that SEC-DED reduces single-flip silent data corruption to zero for
// both posits and IEEE floats (see the protection extension bench).
package ecc

import "math/bits"

// Codeword is a 39-bit SEC-DED codeword, right-aligned in a uint64.
// Bit 0 holds the overall parity; bits 1..38 are the Hamming code with
// parity bits at the power-of-two positions (1, 2, 4, 8, 16, 32) and
// data bits filling the remaining 32 positions.
type Codeword uint64

// Width is the number of meaningful bits in a Codeword.
const Width = 39

// dataPositions lists the codeword positions (1..38) that carry data
// bits, LSB-first. Positions that are powers of two carry parity.
var dataPositions = func() [32]int {
	var out [32]int
	i := 0
	for pos := 1; pos <= 38; pos++ {
		if pos&(pos-1) != 0 { // not a power of two
			out[i] = pos
			i++
		}
	}
	return out
}()

// Status reports the outcome of decoding a codeword.
type Status int

const (
	// OK: the codeword was clean.
	OK Status = iota
	// Corrected: exactly one bit had flipped; it was repaired.
	Corrected
	// Uncorrectable: a double-bit error was detected. The returned
	// data is the best-effort raw extraction and must not be trusted.
	Uncorrectable
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "unknown"
}

// Encode computes the SEC-DED codeword for a data word.
func Encode(data uint32) Codeword {
	var cw uint64
	for i, pos := range dataPositions {
		if data>>uint(i)&1 != 0 {
			cw |= 1 << uint(pos)
		}
	}
	// Hamming parity bits: parity bit at position 2^j covers every
	// position whose index has bit j set.
	for j := 0; j < 6; j++ {
		p := uint(0)
		for pos := 1; pos <= 38; pos++ {
			if pos&(1<<uint(j)) != 0 && pos != 1<<uint(j) {
				p ^= uint(cw>>uint(pos)) & 1
			}
		}
		if p != 0 {
			cw |= 1 << uint(1<<uint(j))
		}
	}
	// Overall parity over bits 1..38 stored at bit 0 (even parity over
	// the whole 39-bit word).
	if bits.OnesCount64(cw)&1 != 0 {
		cw |= 1
	}
	return Codeword(cw)
}

// extract pulls the 32 data bits out of a codeword.
func extract(cw Codeword) uint32 {
	var data uint32
	for i, pos := range dataPositions {
		if cw>>uint(pos)&1 != 0 {
			data |= 1 << uint(i)
		}
	}
	return data
}

// Decode checks and (if possible) repairs a codeword, returning the
// data word and the outcome.
func Decode(cw Codeword) (uint32, Status) {
	syndrome := 0
	for pos := 1; pos <= 38; pos++ {
		if cw>>uint(pos)&1 != 0 {
			syndrome ^= pos
		}
	}
	overallOdd := bits.OnesCount64(uint64(cw))&1 != 0

	switch {
	case syndrome == 0 && !overallOdd:
		return extract(cw), OK
	case overallOdd:
		// Single-bit error: at position `syndrome`, or at the overall
		// parity bit itself when the syndrome is clean.
		pos := syndrome
		if syndrome > 38 {
			// A flip outside the codeword (impossible through Flip,
			// defensive for hand-built patterns).
			return extract(cw), Uncorrectable
		}
		fixed := cw ^ Codeword(1)<<uint(pos)
		return extract(fixed), Corrected
	default:
		// Even overall parity with a nonzero syndrome: double error.
		return extract(cw), Uncorrectable
	}
}

// Flip returns the codeword with bit pos (0..38) inverted — the fault
// model applied to protected memory.
func Flip(cw Codeword, pos int) Codeword {
	if pos < 0 || pos >= Width {
		panic("ecc: flip position out of range")
	}
	return cw ^ Codeword(1)<<uint(pos)
}

// ProtectedArray stores 32-bit words under SEC-DED protection, the
// software model of an ECC-protected memory region.
type ProtectedArray struct {
	words []Codeword
}

// Protect encodes a data array.
func Protect(data []uint32) *ProtectedArray {
	p := &ProtectedArray{words: make([]Codeword, len(data))}
	for i, v := range data {
		p.words[i] = Encode(v)
	}
	return p
}

// Len returns the number of protected words.
func (p *ProtectedArray) Len() int { return len(p.words) }

// Load reads and repairs word i.
func (p *ProtectedArray) Load(i int) (uint32, Status) {
	v, st := Decode(p.words[i])
	if st == Corrected {
		p.words[i] = Encode(v) // write back the repaired word
	}
	return v, st
}

// Store writes word i.
func (p *ProtectedArray) Store(i int, v uint32) { p.words[i] = Encode(v) }

// InjectFault flips one raw bit of word i's codeword (pos 0..38).
func (p *ProtectedArray) InjectFault(i, pos int) { p.words[i] = Flip(p.words[i], pos) }
