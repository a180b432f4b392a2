package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"positres/internal/atomicio"
	"positres/internal/core"
)

// docExampleHex is the worked example of docs/STORE.md ("Worked
// example"), byte for byte. If this test fails after an intentional
// format change, bump Version and rewrite the document's example —
// never patch the constant to match drifting bytes.
const docExampleHex = `
50545343020a64656d6f2f6669656c6406706f736974385600000050545257010f0a64656d6f2f6669
656c6406706f7369743801086672616374696f6e0101000444460002000000000000f83f0000000000
00f83f000000000000fc3f000000000000d03f555555555555c53feed21a1e7e0000005054534684a2
e9cb0d01175a010102010101010001086672616374696f6e0101555555555555c53f00000000000000
00555555555555c53f555555555555c53f01000000000000d03f0000000000000000000000000000d0
3f000000000000d03f02202afa0babfcbf010000000001b1010100000000018901015372a0af820000
0050545345`

// docExampleTrial is the same trial docs/WIRE.md uses: 1.5 as posit8
// (0x44), bit 1 flipped to 0x46 → 1.75, a fraction hit at regime k=1.
var docExampleTrial = core.Trial{
	Field: "demo/field", Codec: "posit8",
	Bit: 1, Seq: 0, Index: 4,
	OrigValue: 1.5, ReprValue: 1.5,
	OrigBits: 0x44, FaultyBits: 0x46, FaultyVal: 1.75,
	FieldName: "fraction", RegimeK: 1,
	AbsErr: 0.25, RelErr: 1.0 / 6.0, Catastrophic: false,
}

// TestDocExampleStore pins the docs/STORE.md worked example against
// the document itself and the real Writer and Open — the spec's
// declared tiebreaker.
func TestDocExampleStore(t *testing.T) {
	want, err := hex.DecodeString(strings.Join(strings.Fields(docExampleHex), ""))
	if err != nil {
		t.Fatalf("docExampleHex is not valid hex: %v", err)
	}
	doc, err := os.ReadFile("../../docs/STORE.md")
	if err != nil {
		t.Fatalf("reading docs/STORE.md: %v", err)
	}
	if !strings.Contains(strings.Join(strings.Fields(string(doc)), ""), hex.EncodeToString(want)) {
		t.Fatal("docs/STORE.md no longer carries the worked-example hex; update the doc and docExampleHex together")
	}

	path := filepath.Join(t.TempDir(), "demo.pts")
	w, err := NewWriter(path, "demo/field", "posit8")
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.AppendShard(1, 2, []core.Trial{docExampleTrial}); err != nil {
		t.Fatalf("AppendShard: %v", err)
	}
	if err := w.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read sealed store: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("sealed store bytes diverge from docs/STORE.md:\n got %x\nwant %x", got, want)
	}

	// And the read side agrees with the document's annotations.
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rd.Close()
	if err := rd.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rd.Field() != "demo/field" || rd.Codec() != "posit8" || rd.Rows() != 1 {
		t.Fatalf("Open read (%q, %q, %d rows), want (demo/field, posit8, 1)",
			rd.Field(), rd.Codec(), rd.Rows())
	}
	var csv, wantCSV bytes.Buffer
	if err := rd.RenderCSV(&csv); err != nil {
		t.Fatalf("RenderCSV: %v", err)
	}
	if err := core.WriteTrialsCSV(&wantCSV, []core.Trial{docExampleTrial}); err != nil {
		t.Fatal(err)
	}
	if csv.String() != wantCSV.String() {
		t.Fatalf("rendered CSV:\n%s\nwant the doc example trial:\n%s", csv.String(), wantCSV.String())
	}
}

// version1ExampleHex is the docs/STORE.md worked example as format
// version 1 wrote it, with the store's former columnar block ("PTSB")
// in place of today's wire frame. It stays as a fixture of a file
// this build must not read.
const version1ExampleHex = `
50545343010a64656d6f2f6669656c6406706f7369743845000000505453420f010201086672616374
696f6e0101000444460002000000000000f83f000000000000f83f000000000000fc3f000000000000
d03f555555555555c53f337b56167e00000050545346adafb3d107011749010102010101010001086672
616374696f6e0101555555555555c53f0000000000000000555555555555c53f555555555555c53f0100
0000000000d03f0000000000000000000000000000d03f000000000000d03f02202afa0babfcbf010000
000001b101010000000001890101942b514d8200000050545345`

// TestVersion1StoreRefused pins the version gate against a real file
// of the previous layout: Open refuses it with ErrVersion, and Resume
// over it as a pending store discards it and starts an empty store —
// a v1 file is never misread as v2.
func TestVersion1StoreRefused(t *testing.T) {
	v1, err := hex.DecodeString(strings.Join(strings.Fields(version1ExampleHex), ""))
	if err != nil {
		t.Fatalf("version1ExampleHex is not valid hex: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.pts")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if rd, err := Open(path); !errors.Is(err, ErrVersion) {
		if err == nil {
			_ = rd.Close()
		}
		t.Fatalf("Open(v1 store) = %v, want ErrVersion", err)
	}

	pending := filepath.Join(dir, "pending.pts")
	if err := os.WriteFile(atomicio.PendingPath(pending), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Resume(pending, "demo/field", "posit8", func(int, int, []core.Trial) bool {
		t.Fatal("a block of a v1 store was offered")
		return false
	})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer w.Abort()
	if rows := w.Doc().Trials; rows != 0 || len(w.blocks) != 0 {
		t.Fatalf("Resume kept %d rows in %d blocks of a v1 store, want an empty store", rows, len(w.blocks))
	}
	if size := fileSize(t, atomicio.PendingPath(pending)); size != int64(len(w.header())) {
		t.Fatalf("pending file is %d bytes after Resume, want the %d-byte header alone", size, len(w.header()))
	}
}
