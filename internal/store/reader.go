package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"positres/internal/core"
	"positres/internal/wire"
)

// Reader serves a sealed .pts file: rows in bit order (rendered as
// CSV byte-identical to core.WriteTrialsCSV), and the footer's
// aggregates in O(bits) without touching a single trial row. Open
// validates the header, trailer and footer CRC up front; block CRCs
// are verified as each block is read.
type Reader struct {
	f       *os.File
	field   string
	codec   string
	dataEnd int64 // file offset where the footer frame begins
	fd      *footerData
}

// Open opens and validates a sealed store file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r, err := newReader(f)
	if err != nil {
		_ = f.Close() // best effort: the validation error is the one worth reporting
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	return r, nil
}

// newReader validates header, trailer and footer of an open file.
func newReader(f *os.File) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	// Header: magic, version, then the (field, codec) strings. Their
	// combined length is bounded, so one capped read covers it.
	headMax := int64(len(fileMagic) + 1 + 2*(binary.MaxVarintLen64+maxStringLen))
	if headMax > size {
		headMax = size
	}
	head := make([]byte, headMax)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headMax), head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if len(head) < len(fileMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte file below header size", ErrCorrupt, size)
	}
	if string(head[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, head[:len(fileMagic)], fileMagic)
	}
	if v := head[len(fileMagic)]; v != Version {
		return nil, fmt.Errorf("%w: file version %d, this reader speaks %d", ErrVersion, v, Version)
	}
	c := &cursor{buf: head, off: len(fileMagic) + 1}
	field := c.str()
	codec := c.str()
	if c.err != nil {
		return nil, c.err
	}

	// Trailer: footer frame span + end magic in the last 8 bytes.
	if size < int64(c.off)+8 {
		return nil, fmt.Errorf("%w: %d-byte file has no room for a trailer", ErrCorrupt, size)
	}
	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], size-8); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	if string(trailer[4:]) != endMagic {
		return nil, fmt.Errorf("%w: trailer magic %q, want %q (file not sealed?)", ErrCorrupt, trailer[4:], endMagic)
	}
	span := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if span > MaxBlockBytes || size-8-span < int64(c.off) {
		return nil, fmt.Errorf("%w: footer span %d does not fit the %d-byte file", ErrCorrupt, span, size)
	}
	dataEnd := size - 8 - span
	frame := make([]byte, span)
	if _, err := f.ReadAt(frame, dataEnd); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	fd, err := parseFooter(frame, dataEnd)
	if err != nil {
		return nil, err
	}
	// The header has no frame of its own; the footer carries its CRC.
	if got := crc32.ChecksumIEEE(head[:c.off]); got != fd.headCRC {
		return nil, fmt.Errorf("%w: header crc32 %08x, footer recorded %08x", ErrCorrupt, got, fd.headCRC)
	}
	return &Reader{f: f, field: field, codec: codec, dataEnd: dataEnd, fd: fd}, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Field returns the dataset field key the store holds.
func (r *Reader) Field() string { return r.field }

// Codec returns the number format the store holds.
func (r *Reader) Codec() string { return r.codec }

// Rows returns the total trial rows in the store.
func (r *Reader) Rows() uint64 { return r.fd.rows }

// Blocks returns the number of blocks (one per shard).
func (r *Reader) Blocks() int { return len(r.fd.blocks) }

// BitAggs finalizes the footer's aggregates into core.BitAggs sorted
// by bit — O(bits), no trial rescan. Counts, means, maxima, geometric
// means and field shares match core.AggregateByBit over the same
// trials exactly (below stats' parallel threshold); medians are
// sketch estimates within SketchAlpha.
func (r *Reader) BitAggs() []core.BitAgg { return finalizeBits(r.fd.bits) }

// Doc builds the sealed aggregate document from the footer.
func (r *Reader) Doc() *AggregateDoc {
	return newDoc(r.field, r.codec, true, finalizeBits(r.fd.bits))
}

// bitOrder returns the block index sorted by ascending BitLo — the
// order the runner's assembly step concatenates shard slabs in, which
// is what keeps rendered CSV byte-identical to the in-memory path.
func (r *Reader) bitOrder() []blockInfo {
	blocks := make([]blockInfo, len(r.fd.blocks))
	copy(blocks, r.fd.blocks)
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].BitLo != blocks[j].BitLo {
			return blocks[i].BitLo < blocks[j].BitLo
		}
		return blocks[i].Offset < blocks[j].Offset
	})
	return blocks
}

// readBlock reads and decodes one block, appending its trials to dst
// and checking them against the footer's index entry. buf is the
// reusable raw-byte scratch; both grown slices return.
func (r *Reader) readBlock(b blockInfo, buf []byte, dst []core.Trial) ([]byte, []core.Trial, error) {
	if cap(buf) < b.Length {
		buf = make([]byte, b.Length)
	}
	buf = buf[:b.Length]
	if _, err := r.f.ReadAt(buf, b.Offset); err != nil {
		return buf, dst, fmt.Errorf("%w: block at %d: %v", ErrCorrupt, b.Offset, err)
	}
	base := len(dst)
	bitLo, bitHi, dst, err := blockTrials(buf, r.field, r.codec, dst)
	if err != nil {
		return buf, dst, err
	}
	if bitLo != b.BitLo || bitHi != b.BitHi || len(dst)-base != b.Rows {
		return buf, dst, fmt.Errorf("%w: block at %d holds bits [%d, %d) in %d rows, footer index says [%d, %d) in %d",
			ErrCorrupt, b.Offset, bitLo, bitHi, len(dst)-base, b.BitLo, b.BitHi, b.Rows)
	}
	return buf, dst, nil
}

// blockTrials decodes one block — exactly one wire frame, length
// prefix through CRC — of a (field, codec) store, appending its trials
// to dst, and returns the block's bit range: [min bit, max bit + 1) of
// its rows, which AppendShard made equal to the shard range. Every
// decode failure is ErrCorrupt; on error dst keeps its length.
func blockTrials(data []byte, field, codec string, dst []core.Trial) (bitLo, bitHi int, _ []core.Trial, _ error) {
	base := len(dst)
	dst, n, err := wire.AppendTrials(dst, data)
	if err != nil {
		return 0, 0, dst, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	rows := dst[base:]
	switch {
	case n != len(data):
		err = fmt.Errorf("%w: %d bytes after the block's frame", ErrCorrupt, len(data)-n)
	case len(rows) == 0:
		err = fmt.Errorf("%w: empty block", ErrCorrupt)
	case rows[0].Field != field || rows[0].Codec != codec:
		// A frame holds one (field, codec) pair, so the first row speaks
		// for every row.
		err = fmt.Errorf("%w: block of (%s, %s) in the store of (%s, %s)",
			ErrCorrupt, rows[0].Field, rows[0].Codec, field, codec)
	}
	if err != nil {
		return 0, 0, dst[:base], err
	}
	bitLo, bitHi = bitSpan(rows)
	return bitLo, bitHi, dst, nil
}

// RenderCSV streams the store's rows to w as CSV, byte-identical to
// core.WriteTrialsCSV over the same trials in assembly order (blocks
// by ascending bit range, rows in stored order within each block).
// Memory is bounded by the largest single block, not the campaign.
func (r *Reader) RenderCSV(w io.Writer) error {
	out := make([]byte, 0, core.CSVFlushAt+512)
	out = core.AppendTrialHeader(out)
	var raw []byte
	var trials []core.Trial
	var err error
	for _, b := range r.bitOrder() {
		trials = trials[:0]
		raw, trials, err = r.readBlock(b, raw, trials)
		if err != nil {
			return err
		}
		for i := range trials {
			out = core.AppendTrialRow(out, &trials[i])
			if len(out) >= core.CSVFlushAt {
				if _, err := w.Write(out); err != nil {
					return fmt.Errorf("store: csv render: %w", err)
				}
				out = out[:0]
			}
		}
	}
	if len(out) > 0 {
		if _, err := w.Write(out); err != nil {
			return fmt.Errorf("store: csv flush: %w", err)
		}
	}
	return nil
}

// Verify decodes every block, checking each CRC, every structural
// invariant and each block's footer index entry — the deep-scan
// behind positstore's verify command. The footer was already verified
// at Open.
func (r *Reader) Verify() error {
	var raw []byte
	var trials []core.Trial
	var err error
	for _, b := range r.fd.blocks {
		trials = trials[:0]
		if raw, trials, err = r.readBlock(b, raw, trials); err != nil {
			return err
		}
	}
	return nil
}
