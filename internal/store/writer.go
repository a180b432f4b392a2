package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sync"

	"positres/internal/atomicio"
	"positres/internal/core"
	"positres/internal/wire"
)

// blockInfo is one footer index entry: where a block's bytes live and
// which (bit range, row count) they carry, so a reader can serve rows
// in bit order and seek without scanning.
type blockInfo struct {
	Offset int64 // file offset of the block's length prefix
	Length int   // total block bytes (prefix + payload + CRC)
	Rows   int   // trial rows in the block
	BitLo  int   // first bit position covered (inclusive)
	BitHi  int   // one past the last bit position covered (exclusive)
}

// Writer builds one .pts file: a header, one block (a wire frame) per
// appended shard, and at Seal a footer indexing the blocks and
// carrying the online aggregates. Until Seal the bytes live in a
// pending file at atomicio.PendingPath(path), never at the final
// path. Every AppendShard returns only once its block is fsynced, so
// the pending file is the durable record of a campaign's progress:
// after a crash, Resume keeps its verified blocks and the campaign
// appends only the shards still missing. Abort deletes the pending
// file; Close leaves it for a later Resume. Writer is safe for
// concurrent use; the aggregates fold under the same lock that orders
// the blocks.
type Writer struct {
	mu      sync.Mutex
	pf      *atomicio.PendingFile
	path    string
	field   string
	codec   string
	headCRC uint32 // CRC-32 of the header bytes, sealed into the footer
	blocks  []blockInfo
	bits    map[int]*bitState
	rows    uint64
	done    bool  // sealed, aborted or closed
	err     error // first write failure; sticky, forces Abort

	// Scratch reused across AppendShard calls and by Seal.
	buf []byte
}

// NewWriter starts a fresh pending store for one (field, codec) pair
// at atomicio.PendingPath(path), discarding any pending bytes already
// there, and writes its header. Callers must finish with Seal, Abort
// or Close.
func NewWriter(path, field, codec string) (*Writer, error) {
	w, err := openWriter(path, field, codec)
	if err != nil {
		return nil, err
	}
	if err := w.reset(); err != nil {
		w.pf.Abort()
		return nil, err
	}
	return w, nil
}

// Resume reopens the pending store for path after a crash or an
// interrupted campaign and returns a writer that appends after the
// blocks it kept. If no pending file exists but a sealed store does
// (a crash between Seal and the caller's own bookkeeping), the sealed
// file is reopened as pending: its blocks are kept and its footer is
// rewritten, byte-identically, by the next Seal. With neither, Resume
// starts an empty store like NewWriter.
//
// Blocks are verified in file order. A block's bit range is
// [min bit, max bit + 1) of its rows, which AppendShard made equal to
// the shard range it was given. The file is truncated at the first
// block that is torn, fails its CRC or structural checks, overlaps
// the bit range of a block already kept (a duplicate), or is refused
// by keep (out of the caller's shard plan); every block after that
// point is dropped with it. keep sees each verified block's range and
// freshly decoded trials before it is kept and may retain them. The
// per-bit aggregates are re-folded from the kept blocks, so the
// writer's Doc equals that of a fresh writer fed the same shards in
// the same order. A header that does not match (field, codec) — a
// file of another pair or another format version — discards the
// whole file.
func Resume(path, field, codec string, keep func(bitLo, bitHi int, trials []core.Trial) bool) (*Writer, error) {
	if _, err := os.Stat(atomicio.PendingPath(path)); errors.Is(err, fs.ErrNotExist) {
		if err := os.Rename(path, atomicio.PendingPath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: reopen sealed %s: %w", path, err)
		}
	}
	w, err := openWriter(path, field, codec)
	if err != nil {
		return nil, err
	}
	if err := w.recover(keep); err != nil {
		_ = w.pf.Close() // best effort: keep the pending bytes for another try
		return nil, err
	}
	return w, nil
}

// openWriter opens the pending file for path without touching its
// contents.
func openWriter(path, field, codec string) (*Writer, error) {
	if len(field) > maxStringLen || len(codec) > maxStringLen {
		return nil, fmt.Errorf("%w: field/codec name over %d bytes", ErrCorrupt, maxStringLen)
	}
	pf, err := atomicio.Resume(path)
	if err != nil {
		return nil, err
	}
	return &Writer{pf: pf, path: path, field: field, codec: codec, bits: map[int]*bitState{}}, nil
}

// header returns the file header bytes: magic, version and the
// (field, codec) pair.
func (w *Writer) header() []byte {
	hdr := append([]byte(fileMagic), Version)
	hdr = appendString(hdr, w.field)
	return appendString(hdr, w.codec)
}

// reset empties the pending file and writes a fresh header.
func (w *Writer) reset() error {
	if err := w.pf.Truncate(0); err != nil {
		return err
	}
	hdr := w.header()
	w.headCRC = crc32.ChecksumIEEE(hdr)
	if _, err := w.pf.Write(hdr); err != nil {
		return fmt.Errorf("store: header %s: %w", w.path, err)
	}
	return nil
}

// recover keeps the verified block prefix of the pending file, as
// Resume documents, and truncates the rest.
func (w *Writer) recover(keep func(bitLo, bitHi int, trials []core.Trial) bool) error {
	hdr := w.header()
	size, err := w.pf.Size()
	if err != nil {
		return err
	}
	if size < int64(len(hdr)) {
		return w.reset()
	}
	got := make([]byte, len(hdr))
	if _, err := w.pf.ReadAt(got, 0); err != nil {
		return fmt.Errorf("store: recover %s: %w", w.path, err)
	}
	if !bytes.Equal(got, hdr) {
		return w.reset()
	}
	w.headCRC = crc32.ChecksumIEEE(hdr)
	off := int64(len(hdr))
	var prefix [4]byte
	var raw []byte
	for off+4 <= size {
		if _, err := w.pf.ReadAt(prefix[:], off); err != nil {
			return fmt.Errorf("store: recover %s: %w", w.path, err)
		}
		n := int64(binary.LittleEndian.Uint32(prefix[:])) + 4
		if n-4 > MaxBlockBytes || off+n > size {
			break // torn: the length prefix outruns the file
		}
		if int64(cap(raw)) < n {
			raw = make([]byte, n)
		}
		raw = raw[:n]
		if _, err := w.pf.ReadAt(raw, off); err != nil {
			return fmt.Errorf("store: recover %s: %w", w.path, err)
		}
		lo, hi, trials, err := blockTrials(raw, w.field, w.codec, nil)
		if err != nil || w.overlaps(lo, hi) || (keep != nil && !keep(lo, hi, trials)) {
			break
		}
		w.record(blockInfo{Offset: off, Length: int(n), Rows: len(trials), BitLo: lo, BitHi: hi}, trials)
		off += n
	}
	return w.pf.Truncate(off)
}

// overlaps reports whether [bitLo, bitHi) intersects a kept block.
func (w *Writer) overlaps(bitLo, bitHi int) bool {
	for _, b := range w.blocks {
		if bitLo < b.BitHi && b.BitLo < bitHi {
			return true
		}
	}
	return false
}

// record indexes one durable block and folds its trials into the
// per-bit aggregates.
func (w *Writer) record(b blockInfo, trials []core.Trial) {
	w.blocks = append(w.blocks, b)
	for i := range trials {
		tr := &trials[i]
		st := w.bits[tr.Bit]
		if st == nil {
			st = newBitState()
			w.bits[tr.Bit] = st
		}
		st.fold(tr)
	}
	w.rows += uint64(len(trials))
}

// AppendShard encodes one shard's trials as a block — one wire frame,
// byte for byte — writes and fsyncs it, and folds the trials into the
// per-bit aggregates; it returns only once the block is durable. The
// rows must carry the writer's (field, codec), lie in [bitLo, bitHi) —
// the half-open shard range convention internal/runner uses — and
// cover both bitLo and bitHi-1, so the block's range can be read back
// from its rows; violations are ErrCorrupt append errors, not silent
// corruption. After a write or fsync error the writer is spent:
// further appends fail and Seal aborts, while Close keeps the blocks
// already durable for a Resume.
func (w *Writer) AppendShard(bitLo, bitHi int, trials []core.Trial) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("%w: %s", ErrSealed, w.path)
	}
	if w.err != nil {
		return w.err
	}
	if err := w.checkShard(bitLo, bitHi, trials); err != nil {
		return err // the file is still clean
	}
	offset, err := w.pf.Offset()
	if err != nil {
		w.err = fmt.Errorf("store: offset %s: %w", w.path, err)
		return w.err
	}
	buf, err := wire.AppendFrame(w.buf[:0], trials)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err) // the file is still clean
	}
	w.buf = buf[:0]
	if _, err := w.pf.Write(buf); err != nil {
		w.err = fmt.Errorf("store: block %s: %w", w.path, err)
		return w.err
	}
	if err := w.pf.Sync(); err != nil {
		w.err = fmt.Errorf("store: block %s: %w", w.path, err)
		return w.err
	}
	w.record(blockInfo{Offset: offset, Length: len(buf), Rows: len(trials), BitLo: bitLo, BitHi: bitHi}, trials)
	return nil
}

// checkShard enforces AppendShard's rules on one shard's rows. Rows
// inside [bitLo, bitHi) that cover both ends are exactly rows whose
// bitSpan is [bitLo, bitHi).
func (w *Writer) checkShard(bitLo, bitHi int, trials []core.Trial) error {
	if bitLo < 0 || bitHi <= bitLo {
		return fmt.Errorf("%w: bit range [%d, %d)", ErrCorrupt, bitLo, bitHi)
	}
	for i := range trials {
		if tr := &trials[i]; tr.Field != w.field || tr.Codec != w.codec {
			return fmt.Errorf("%w: mixed (field, codec) in one store: (%s, %s) vs (%s, %s)",
				ErrCorrupt, tr.Field, tr.Codec, w.field, w.codec)
		}
	}
	if lo, hi := bitSpan(trials); lo != bitLo || hi != bitHi {
		return fmt.Errorf("%w: rows span bits [%d, %d), shard range is [%d, %d)",
			ErrCorrupt, lo, hi, bitLo, bitHi)
	}
	return nil
}

// bitSpan returns [min bit, max bit + 1) over trials; [0, 0) when
// there are none.
func bitSpan(trials []core.Trial) (lo, hi int) {
	if len(trials) == 0 {
		return 0, 0
	}
	lo, hi = trials[0].Bit, trials[0].Bit
	for i := range trials {
		lo, hi = min(lo, trials[i].Bit), max(hi, trials[i].Bit)
	}
	return lo, hi + 1
}

// Doc snapshots the live aggregates as an unsealed aggregate
// document.
func (w *Writer) Doc() *AggregateDoc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return newDoc(w.field, w.codec, false, finalizeBits(w.bits))
}

// Seal writes the footer (block index + aggregates), the locating
// trailer, and commits the pending file to its final path. After Seal
// the writer is spent.
func (w *Writer) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("%w: %s", ErrSealed, w.path)
	}
	w.done = true
	if w.err != nil {
		w.pf.Abort()
		return w.err
	}
	buf := appendFooter(w.buf[:0], w.headCRC, w.blocks, w.rows, w.bits)
	w.buf = buf[:0]
	// Trailer: the footer frame's byte span plus the end magic, so a
	// reader finds the footer by seeking 8 bytes from EOF.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(buf)))
	buf = append(buf, endMagic...)
	if _, err := w.pf.Write(buf); err != nil {
		_ = w.pf.Close() // best effort: a Resume drops the torn footer
		return fmt.Errorf("store: footer %s: %w", w.path, err)
	}
	return w.pf.Commit()
}

// Abort deletes the pending file. Safe to call after Seal or Close
// (no-op), so callers can defer it unconditionally.
func (w *Writer) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.done = true
	w.pf.Abort()
}

// Close releases the pending file without sealing it: every block
// appended so far stays durable at atomicio.PendingPath(path) for a
// later Resume. A no-op after Seal, Abort or an earlier Close.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	return w.pf.Close()
}
