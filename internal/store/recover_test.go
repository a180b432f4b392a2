package store

// Tests of the pending store as a campaign's durable record: Resume
// keeps exactly the verified block prefix, truncates everything from
// the first torn, corrupt, duplicate or unplanned block on, and
// re-folds aggregates equal to a fresh writer fed the kept shards.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"positres/internal/atomicio"
	"positres/internal/core"
)

// testShard is one shard's bit range and trials.
type testShard struct {
	lo, hi int
	trials []core.Trial
}

// splitShards cuts trials over [0, width) into shards of bits bits.
func splitShards(trials []core.Trial, width, bits int) []testShard {
	var out []testShard
	for lo := 0; lo < width; lo += bits {
		sh := testShard{lo: lo, hi: lo + bits}
		for _, tr := range trials {
			if tr.Bit >= sh.lo && tr.Bit < sh.hi {
				sh.trials = append(sh.trials, tr)
			}
		}
		out = append(out, sh)
	}
	return out
}

// recoverFixture is a 4-shard posit8 campaign small enough to cut at
// every byte of a block.
func recoverFixture(t testing.TB) []testShard {
	return splitShards(genTrials(t, "CESM/CLOUD", "posit8", 200, 2, 0, 8), 8, 2)
}

// appendAll appends shards to w in order.
func appendAll(t testing.TB, w *Writer, shards []testShard) {
	t.Helper()
	for _, sh := range shards {
		if err := w.AppendShard(sh.lo, sh.hi, sh.trials); err != nil {
			t.Fatal(err)
		}
	}
}

// pendingStore appends shards to a fresh writer at path and closes it,
// leaving the pending file. It returns the offset where each block
// starts, then the file's end.
func pendingStore(t testing.TB, path string, shards []testShard) []int64 {
	t.Helper()
	w, err := NewWriter(path, "CESM/CLOUD", "posit8")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, shards)
	var offs []int64
	for _, b := range w.blocks {
		offs = append(offs, b.Offset)
	}
	end, err := w.pf.Offset()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return append(offs, end)
}

// docJSON renders a writer's live aggregate document.
func docJSON(t testing.TB, w *Writer) []byte {
	t.Helper()
	raw, err := json.Marshal(w.Doc())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// freshDoc is the live document of a fresh writer fed shards.
func freshDoc(t testing.TB, shards []testShard) []byte {
	t.Helper()
	w, err := NewWriter(filepath.Join(t.TempDir(), "fresh.pts"), "CESM/CLOUD", "posit8")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	appendAll(t, w, shards)
	return docJSON(t, w)
}

// resumeAll reopens path accepting every block, returning the writer
// and the kept ranges in file order.
func resumeAll(t testing.TB, path string) (*Writer, [][2]int) {
	t.Helper()
	var kept [][2]int
	w, err := Resume(path, "CESM/CLOUD", "posit8", func(lo, hi int, _ []core.Trial) bool {
		kept = append(kept, [2]int{lo, hi})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, kept
}

// fileSize stats path.
func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestResumeTruncatedLastBlock cuts the pending store at every byte
// offset inside its last block: recovery keeps exactly the earlier
// blocks, truncates the file to them, and re-folds the same aggregate
// document as a fresh writer fed those shards. Appending the lost
// shard and sealing then yields the very bytes of an uninterrupted
// store.
func TestResumeTruncatedLastBlock(t *testing.T) {
	shards := recoverFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pts")
	offs := pendingStore(t, path, shards)
	pending := atomicio.PendingPath(path)
	raw, err := os.ReadFile(pending)
	if err != nil {
		t.Fatal(err)
	}
	last := len(shards) - 1
	want := freshDoc(t, shards[:last])
	for cut := offs[last]; cut < offs[last+1]; cut++ {
		if err := os.WriteFile(pending, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, kept := resumeAll(t, path)
		if len(kept) != last {
			t.Fatalf("cut at %d: kept %d blocks, want %d", cut, len(kept), last)
		}
		for i, r := range kept {
			if r != [2]int{shards[i].lo, shards[i].hi} {
				t.Fatalf("cut at %d: block %d covers %v", cut, i, r)
			}
		}
		if got := docJSON(t, w); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: recovered doc differs from a fresh writer's", cut)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if size := fileSize(t, pending); size != offs[last] {
			t.Fatalf("cut at %d: pending file is %d bytes after recovery, want %d", cut, size, offs[last])
		}
	}

	// Finish the recovered store and compare with an uninterrupted one.
	w, _ := resumeAll(t, path)
	appendAll(t, w, shards[last:])
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "x.pts")
	writeStore(t, ref, "CESM/CLOUD", "posit8", genTrials(t, "CESM/CLOUD", "posit8", 200, 2, 0, 8), 0, 8, 2)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatal("recovered-then-sealed store differs from an uninterrupted one")
	}
}

// TestResumeCorruptMiddleBlock flips one byte in a middle block:
// recovery drops that block and every later one.
func TestResumeCorruptMiddleBlock(t *testing.T) {
	shards := recoverFixture(t)
	path := filepath.Join(t.TempDir(), "x.pts")
	offs := pendingStore(t, path, shards)
	pending := atomicio.PendingPath(path)
	raw, err := os.ReadFile(pending)
	if err != nil {
		t.Fatal(err)
	}
	raw[(offs[1]+offs[2])/2] ^= 0x01
	if err := os.WriteFile(pending, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, kept := resumeAll(t, path)
	defer w.Abort()
	if len(kept) != 1 || kept[0] != [2]int{shards[0].lo, shards[0].hi} {
		t.Fatalf("kept %v, want only the first block", kept)
	}
	if got, want := docJSON(t, w), freshDoc(t, shards[:1]); !bytes.Equal(got, want) {
		t.Fatal("recovered doc differs from a fresh writer fed the first shard")
	}
	if size := fileSize(t, pending); size != offs[1] {
		t.Fatalf("pending file is %d bytes, want %d", size, offs[1])
	}
}

// TestResumeDropsDuplicateAndUnplannedBlocks: a block repeating a kept
// bit range, or one the caller's plan refuses, ends the kept prefix.
func TestResumeDropsDuplicateAndUnplannedBlocks(t *testing.T) {
	shards := recoverFixture(t)
	path := filepath.Join(t.TempDir(), "x.pts")
	pendingStore(t, path, []testShard{shards[0], shards[1], shards[0], shards[2]})
	w, kept := resumeAll(t, path)
	if rows := w.Doc().Trials; len(kept) != 2 || rows != uint64(len(shards[0].trials)+len(shards[1].trials)) {
		t.Fatalf("duplicate: kept %v (%d rows), want the first two blocks", kept, rows)
	}
	appendAll(t, w, shards[2:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := Resume(path, "CESM/CLOUD", "posit8", func(lo, _ int, _ []core.Trial) bool { return lo != shards[1].lo })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if w.Doc().Trials != uint64(len(shards[0].trials)) || len(w.blocks) != 1 {
		t.Fatalf("unplanned: kept %d blocks, want 1", len(w.blocks))
	}
}

// TestResumeForeignHeaderStartsFresh: a pending file written for a
// different (field, codec) pair is discarded whole.
func TestResumeForeignHeaderStartsFresh(t *testing.T) {
	shards := recoverFixture(t)
	path := filepath.Join(t.TempDir(), "x.pts")
	pendingStore(t, path, shards)
	w, err := Resume(path, "CESM/CLOUD", "posit16", func(int, int, []core.Trial) bool {
		t.Fatal("a block of a foreign store was offered")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if rows := w.Doc().Trials; rows != 0 || fileSize(t, atomicio.PendingPath(path)) != int64(len(w.header())) {
		t.Fatalf("foreign store not reset: %d rows", rows)
	}
}

// TestResumeSealedStore reopens a sealed store as pending (the crash
// between Seal and the caller's bookkeeping): every block is kept, the
// final path is vacated until the next Seal, and that Seal rewrites
// the original bytes.
func TestResumeSealedStore(t *testing.T) {
	shards := recoverFixture(t)
	path := filepath.Join(t.TempDir(), "x.pts")
	w, err := NewWriter(path, "CESM/CLOUD", "posit8")
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, shards)
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, kept := resumeAll(t, path)
	if len(kept) != len(shards) {
		t.Fatalf("kept %d of %d sealed blocks", len(kept), len(shards))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path still visible while the store is pending: %v", err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sealed) {
		t.Fatal("re-sealed store differs from the original")
	}
}
