package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"positres/internal/core"
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

// Blocks returns the number of columnar blocks (one per shard).
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
	bitLo, bitHi, dst, err := decodeBlock(buf, r.field, r.codec, dst)
	if err != nil {
		return buf, dst, err
	}
	if bitLo != b.BitLo || bitHi != b.BitHi || len(dst)-base != b.Rows {
		return buf, dst, fmt.Errorf("%w: block at %d holds bits [%d, %d) in %d rows, footer index says [%d, %d) in %d",
			ErrCorrupt, b.Offset, bitLo, bitHi, len(dst)-base, b.BitLo, b.BitHi, b.Rows)
	}
	return buf, dst, nil
}

// decodeBlock decodes one complete block frame (length prefix through
// CRC) of a (field, codec) store into trials appended to dst,
// returning the block's bit range. The CRC is verified first and
// every length and index before use.
func decodeBlock(data []byte, field, codec string, dst []core.Trial) (bitLo, bitHi int, _ []core.Trial, _ error) {
	payload, err := unwrapFrame(data, blockMagic)
	if err != nil {
		return 0, 0, dst, err
	}
	c := &cursor{buf: payload}
	if cols := c.byte(); c.err == nil && int(cols) != len(trialWireHeader) {
		return 0, 0, dst, fmt.Errorf("%w: block carries %d columns per row, this reader maps %d",
			ErrCorrupt, cols, len(trialWireHeader))
	}
	bitLo = c.intv()
	bitHi = c.intv()
	if c.err == nil && bitHi <= bitLo {
		c.fail("block bit range [%d, %d)", bitLo, bitHi)
	}
	nNames := c.uvarint()
	if c.err == nil && nNames > maxNames {
		c.fail("name table of %d entries exceeds %d", nNames, maxNames)
	}
	names := make([]string, 0, 8)
	for i := uint64(0); c.err == nil && i < nNames; i++ {
		names = append(names, c.str())
	}
	rows := c.uvarint()
	// Each row costs at least 7 varint/meta bytes plus 40 fixed float
	// bytes across the columns; refuse impossible counts before
	// allocating.
	if c.err == nil {
		if remaining := uint64(len(c.buf) - c.off); rows > remaining/41 {
			c.fail("%d rows declared, %d payload bytes remain", rows, remaining)
		}
	}
	if c.err != nil {
		return 0, 0, dst, c.err
	}
	base := len(dst)
	need := base + int(rows)
	if cap(dst) < need {
		grown := make([]core.Trial, need)
		copy(grown, dst)
		dst = grown[:base]
	}
	// Every field of every row is assigned by the column loops below,
	// so extending into reused capacity needs no zeroing.
	dst = dst[:need]
	out := dst[base:]
	for i := range out {
		tr := &out[i]
		tr.Field = field
		tr.Codec = codec
		tr.Bit = c.intv()
		if c.err == nil && (tr.Bit < bitLo || tr.Bit >= bitHi) {
			c.fail("row %d bit %d outside block range [%d, %d)", i, tr.Bit, bitLo, bitHi)
		}
	}
	for i := range out {
		out[i].Seq = c.intv()
	}
	for i := range out {
		out[i].Index = c.intv()
	}
	for i := range out {
		out[i].OrigBits = c.uvarint()
	}
	for i := range out {
		out[i].FaultyBits = c.uvarint()
	}
	for i := range out {
		meta := c.byte()
		out[i].Catastrophic = meta&1 != 0
		if idx := int(meta >> 1); c.err == nil {
			if idx >= len(names) {
				c.fail("row %d bit-field name index %d past table of %d", i, idx, len(names))
			} else {
				out[i].FieldName = names[idx]
			}
		}
	}
	for i := range out {
		out[i].RegimeK = c.varint()
	}
	for i := range out {
		out[i].OrigValue = c.float()
	}
	for i := range out {
		out[i].ReprValue = c.float()
	}
	for i := range out {
		out[i].FaultyVal = c.float()
	}
	for i := range out {
		out[i].AbsErr = c.float()
	}
	for i := range out {
		out[i].RelErr = c.float()
	}
	if c.err != nil {
		return 0, 0, dst, c.err
	}
	if c.off != len(c.buf) {
		return 0, 0, dst, fmt.Errorf("%w: %d trailing payload bytes after last column", ErrCorrupt, len(c.buf)-c.off)
	}
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

// Verify decodes every block, checking each CRC and every structural
// invariant — the deep-scan behind positstore's verify command. The
// footer was already verified at Open.
func (r *Reader) Verify() error {
	var raw []byte
	var trials []core.Trial
	var err error
	for _, b := range r.fd.blocks {
		trials = trials[:0]
		raw, trials, err = r.readBlock(b, raw, trials)
		if err != nil {
			return err
		}
		if len(trials) != b.Rows {
			return fmt.Errorf("%w: block at %d decoded %d rows, index says %d",
				ErrCorrupt, b.Offset, len(trials), b.Rows)
		}
	}
	return nil
}
