package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCleanRoundTrip (property): encode → decode is the identity with
// status OK.
func TestCleanRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		got, st := Decode(Encode(v))
		return got == v && st == OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestEverySingleBitCorrected: for a sample of words, flipping each of
// the 39 codeword bits individually is always corrected back to the
// original data.
func TestEverySingleBitCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []uint32{0, 0xFFFFFFFF, 1, 0x80000000, 0xDEADBEEF, 0x55555555, 0xAAAAAAAA}
	for i := 0; i < 200; i++ {
		words = append(words, rng.Uint32())
	}
	for _, w := range words {
		cw := Encode(w)
		for pos := 0; pos < Width; pos++ {
			got, st := Decode(Flip(cw, pos))
			if st != Corrected {
				t.Fatalf("word %#x bit %d: status %v", w, pos, st)
			}
			if got != w {
				t.Fatalf("word %#x bit %d: corrected to %#x", w, pos, got)
			}
		}
	}
}

// TestEveryDoubleBitDetected: every pair of flips is reported
// Uncorrectable — never silently accepted or miscorrected as OK.
func TestEveryDoubleBitDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := []uint32{0, 0xFFFFFFFF, 0x12345678}
	for i := 0; i < 20; i++ {
		words = append(words, rng.Uint32())
	}
	for _, w := range words {
		cw := Encode(w)
		for a := 0; a < Width; a++ {
			for b := a + 1; b < Width; b++ {
				_, st := Decode(Flip(Flip(cw, a), b))
				if st != Uncorrectable {
					t.Fatalf("word %#x bits %d,%d: status %v (double error missed)", w, a, b, st)
				}
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" ||
		Uncorrectable.String() != "uncorrectable" || Status(9).String() != "unknown" {
		t.Error("status strings")
	}
}

func TestProtectedArray(t *testing.T) {
	data := []uint32{10, 20, 30, 0xCAFEBABE}
	p := Protect(data)
	if p.Len() != 4 {
		t.Fatal("len")
	}
	for i, want := range data {
		got, st := p.Load(i)
		if got != want || st != OK {
			t.Fatalf("load %d: %#x %v", i, got, st)
		}
	}
	// Inject a fault; Load repairs and writes back.
	p.InjectFault(2, 17)
	got, st := p.Load(2)
	if got != 30 || st != Corrected {
		t.Fatalf("after fault: %#x %v", got, st)
	}
	if got, st := p.Load(2); got != 30 || st != OK {
		t.Fatalf("write-back failed: %#x %v", got, st)
	}
	// Store overwrites.
	p.Store(1, 99)
	if got, _ := p.Load(1); got != 99 {
		t.Fatal("store")
	}
}

func TestFlipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range flip should panic")
		}
	}()
	Flip(0, 39)
}

// TestCodewordDensity: the code adds exactly 7 bits of redundancy.
func TestCodewordDensity(t *testing.T) {
	if Width != 39 {
		t.Fatal("width")
	}
	if len(dataPositions) != 32 {
		t.Fatal("data positions")
	}
	seen := map[int]bool{}
	for _, p := range dataPositions {
		if p < 1 || p > 38 || p&(p-1) == 0 || seen[p] {
			t.Fatalf("bad data position %d", p)
		}
		seen[p] = true
	}
}
