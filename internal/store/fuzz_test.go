package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"positres/internal/atomicio"
	"positres/internal/core"
)

// seedTrial returns a tiny hand-built shard for the fuzz seed store.
func seedTrial() []core.Trial {
	return []core.Trial{
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 0, Seq: 0, Index: 3,
			OrigValue: 0.5, ReprValue: 0.5, OrigBits: 0x4000, FaultyBits: 0xC000,
			FaultyVal: -0.5, FieldName: "sign", RegimeK: -1, AbsErr: 1, RelErr: 2},
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 1, Seq: 0, Index: 9,
			OrigValue: 0.25, ReprValue: 0.25, OrigBits: 0x3000, FaultyBits: 0x7000,
			FaultyVal: 16, FieldName: "regime", RegimeK: -2,
			AbsErr: 15.75, RelErr: 63, Catastrophic: true},
		{Field: "CESM/CLOUD", Codec: "posit16", Bit: 1, Seq: 1, Index: 2,
			OrigValue: math.NaN(), ReprValue: math.NaN(), OrigBits: 0x8000,
			FaultyBits: 0x8001, FaultyVal: math.NaN(), FieldName: "fraction",
			RegimeK: 0, AbsErr: math.NaN(), RelErr: math.NaN()},
	}
}

// readWholeFile and writeRawFile keep the fuzz body free of direct os
// calls at its hot path; test files are exempt from the atomicwrite
// rule, and fuzz scratch files are not publication points.
func readWholeFile(path string) ([]byte, error) { return os.ReadFile(path) }

func writeRawFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// footerSeed builds a realistic sealed footer frame for the fuzz
// corpus: two blocks, two bit aggregates with moments and sketches.
func footerSeed() []byte {
	bits := map[int]*bitState{}
	for b := 0; b < 2; b++ {
		st := newBitState()
		st.trials = 3
		st.catastrophic = 1
		st.fieldCounts["exponent"] = 2
		st.fieldCounts["fraction"] = 1
		st.rel.Add(0.25)
		st.rel.Add(3e-7)
		st.abs.Add(1.5)
		st.abs.Add(2e-3)
		st.relSumLog = -8.5
		st.relLogN = 2
		st.relSketch.Add(0.25)
		st.relSketch.Add(3e-7)
		st.absSketch.Add(1.5)
		st.absSketch.Add(2e-3)
		bits[b] = st
	}
	blocks := []blockInfo{
		{Offset: 16, Length: 120, Rows: 3, BitLo: 0, BitHi: 1},
		{Offset: 136, Length: 98, Rows: 3, BitLo: 1, BitHi: 2},
	}
	return appendFooter(nil, 0xDEADBEEF, blocks, 6, bits)
}

// FuzzFooterIndex hammers parseFooter with corrupted frames: whatever
// the bytes, it must return an error or a footer whose block index is
// fully bounds-checked — never panic, never index past the data
// region, never allocate unboundedly. Wired into `make fuzz-short`.
func FuzzFooterIndex(f *testing.F) {
	seed := footerSeed()
	f.Add(seed, int64(300))
	// Single-byte corruptions of the real frame make good starting
	// points: they keep the CRC landscape explorable.
	for _, off := range []int{0, 4, 8, len(seed) / 2, len(seed) - 5} {
		bad := append([]byte(nil), seed...)
		bad[off] ^= 0x40
		f.Add(bad, int64(300))
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte("PTSF"), int64(1))
	f.Fuzz(func(t *testing.T, frame []byte, dataEnd int64) {
		fd, err := parseFooter(frame, dataEnd)
		if err != nil {
			return
		}
		// Accepted frames must uphold the invariants readers rely on.
		var sum uint64
		for _, b := range fd.blocks {
			if b.Offset < 0 || b.Length < 0 || b.Offset+int64(b.Length) > dataEnd {
				t.Fatalf("accepted block outside data region: %+v (dataEnd %d)", b, dataEnd)
			}
			if b.BitHi <= b.BitLo || b.Rows < 0 {
				t.Fatalf("accepted malformed block: %+v", b)
			}
			sum += uint64(b.Rows)
		}
		if sum != fd.rows {
			t.Fatalf("accepted row count %d, block sum %d", fd.rows, sum)
		}
		for bit, st := range fd.bits {
			if st.catastrophic > st.trials {
				t.Fatalf("bit %d: accepted %d catastrophic of %d trials", bit, st.catastrophic, st.trials)
			}
		}
	})
}

// FuzzOpen hammers the whole-file open path: arbitrary bytes on disk
// must never panic the reader, and whatever opens must verify or fail
// cleanly.
func FuzzOpen(f *testing.F) {
	// Seed with a real sealed store.
	dir := f.TempDir()
	w, err := NewWriter(filepath.Join(dir, "seed.pts"), "CESM/CLOUD", "posit16")
	if err != nil {
		f.Fatal(err)
	}
	tr := seedTrial()
	if err := w.AppendShard(0, 2, tr); err != nil {
		f.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		f.Fatal(err)
	}
	raw, err := readWholeFile(filepath.Join(dir, "seed.pts"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, off := range []int{0, 5, len(raw) / 2, len(raw) - 6} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.pts")
		if err := writeRawFile(path, data); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		defer func() { _ = r.Close() }() // best effort: fuzz scratch file
		if err := r.Verify(); err != nil {
			return
		}
		var buf bytes.Buffer
		_ = r.RenderCSV(&buf) // must not panic; errors are acceptable
	})
}

// FuzzRecoverPending hammers Resume with arbitrary pending-file bytes:
// recovery must never panic, and it must never keep a block whose CRC
// fails — sealing whatever it kept always yields a store that opens
// and verifies with exactly the kept rows. Wired into `make
// fuzz-short`.
func FuzzRecoverPending(f *testing.F) {
	// Seed with a real two-block pending store.
	dir := f.TempDir()
	w, err := NewWriter(filepath.Join(dir, "seed.pts"), "CESM/CLOUD", "posit16")
	if err != nil {
		f.Fatal(err)
	}
	first := seedTrial()
	second := seedTrial()
	for i := range second {
		second[i].Bit += 2
	}
	if err := w.AppendShard(0, 2, first); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendShard(2, 4, second); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := readWholeFile(atomicio.PendingPath(filepath.Join(dir, "seed.pts")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, off := range []int{0, 5, 20, len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		f.Add(bad)
	}
	f.Add(raw[:len(raw)-7])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.pts")
		if err := writeRawFile(atomicio.PendingPath(path), data); err != nil {
			t.Skip()
		}
		var rows uint64
		blocks := 0
		w, err := Resume(path, "CESM/CLOUD", "posit16", func(_, _ int, trials []core.Trial) bool {
			rows += uint64(len(trials))
			blocks++
			return true
		})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if got := w.Doc().Trials; got != rows {
			t.Fatalf("writer holds %d rows, keep saw %d", got, rows)
		}
		if err := w.Seal(); err != nil {
			t.Fatalf("seal after recovery: %v", err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("recovered store does not open: %v", err)
		}
		defer func() { _ = r.Close() }() // best effort: fuzz scratch file
		if err := r.Verify(); err != nil {
			t.Fatalf("recovered store kept a bad block: %v", err)
		}
		if r.Rows() != rows || r.Blocks() != blocks {
			t.Fatalf("sealed %d rows in %d blocks, kept %d in %d", r.Rows(), r.Blocks(), rows, blocks)
		}
	})
}
