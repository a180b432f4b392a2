package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"positres/internal/stats"
	"positres/internal/wire"
)

// Footer sanity bounds: generous multiples of anything a real
// campaign produces, tight enough that a corrupted count cannot drive
// a giant allocation before validation fails.
const (
	maxFooterBlocks = 1 << 20 // shards per (field, codec)
	maxFooterBits   = 1 << 12 // bit positions per codec (real max: 64)
)

// footerData is the decoded footer: the block index plus the per-bit
// aggregate states, everything a reader needs to serve rows in bit
// order and summaries in O(bits).
type footerData struct {
	headCRC uint32 // CRC-32 of the file header (magic..codec string)
	blocks  []blockInfo
	rows    uint64
	bits    map[int]*bitState
}

// appendFooter appends the framed footer — length prefix, payload
// (magic, header CRC, block index, total rows, aggregates by
// ascending bit), CRC-32 of the payload. headCRC backfills integrity
// for the header, which no frame of its own covers: a reader
// recomputes it over the header bytes it parsed, so a flipped bit in
// the (field, codec) identity fails Open instead of silently
// relabeling every row.
func appendFooter(dst []byte, headCRC uint32, blocks []blockInfo, rows uint64, bits map[int]*bitState) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	p := len(dst)                 // payload start
	dst = append(dst, footerMagic...)
	dst = binary.AppendUvarint(dst, uint64(headCRC))
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.Offset))
		dst = binary.AppendUvarint(dst, uint64(b.Length))
		dst = binary.AppendUvarint(dst, uint64(b.Rows))
		dst = binary.AppendUvarint(dst, uint64(b.BitLo))
		dst = binary.AppendUvarint(dst, uint64(b.BitHi))
	}
	dst = binary.AppendUvarint(dst, rows)

	order := make([]int, 0, len(bits))
	for b := range bits {
		order = append(order, b)
	}
	sort.Ints(order)
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, bit := range order {
		st := bits[bit]
		dst = binary.AppendUvarint(dst, uint64(bit))
		dst = binary.AppendUvarint(dst, uint64(st.trials))
		dst = binary.AppendUvarint(dst, uint64(st.catastrophic))
		names := make([]string, 0, len(st.fieldCounts))
		for name := range st.fieldCounts {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic bytes for identical state
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, name := range names {
			dst = appendString(dst, name)
			dst = binary.AppendUvarint(dst, st.fieldCounts[name])
		}
		dst = appendMoments(dst, st.rel)
		dst = appendMoments(dst, st.abs)
		dst = appendFixedFloat(dst, st.relSumLog)
		dst = binary.AppendUvarint(dst, st.relLogN)
		dst = appendSketch(dst, st.relSketch)
		dst = appendSketch(dst, st.absSketch)
	}
	crc := crc32.ChecksumIEEE(dst[p:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-p))
	return dst
}

// appendMoments serializes a moment accumulator's portable state.
func appendMoments(dst []byte, m stats.Moments) []byte {
	s := m.State()
	dst = binary.AppendUvarint(dst, uint64(s.N))
	dst = appendFixedFloat(dst, s.Mean)
	dst = appendFixedFloat(dst, s.M2)
	dst = appendFixedFloat(dst, s.Min)
	return appendFixedFloat(dst, s.Max)
}

// appendFixedFloat appends one float64 as its little-endian bit
// pattern — lossless, including NaN payloads and signed zeros.
func appendFixedFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// readMoments decodes what appendMoments wrote.
func readMoments(c *cursor) stats.Moments {
	var s stats.MomentsState
	s.N = c.intv()
	s.Mean = c.float()
	s.M2 = c.float()
	s.Min = c.float()
	s.Max = c.float()
	return stats.MomentsFromState(s)
}

// unwrapFrame validates one complete length-prefixed CRC frame
// (exactly the bytes in data) opened by magic, returning the payload
// after the magic. The CRC is verified before any content is
// interpreted.
func unwrapFrame(data []byte, magic string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, need 4-byte length prefix", ErrCorrupt, len(data))
	}
	frameLen := binary.LittleEndian.Uint32(data)
	if frameLen > MaxBlockBytes {
		return nil, fmt.Errorf("%w: declared length %d exceeds %d", ErrCorrupt, frameLen, MaxBlockBytes)
	}
	if uint64(frameLen) != uint64(len(data)-4) {
		return nil, fmt.Errorf("%w: declared length %d, %d bytes present", ErrCorrupt, frameLen, len(data)-4)
	}
	if frameLen < uint32(4+len(magic)) {
		return nil, fmt.Errorf("%w: frame length %d below CRC and magic size", ErrCorrupt, frameLen)
	}
	payload := data[4 : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: crc32 %08x, frame announces %08x", ErrCorrupt, got, wantCRC)
	}
	if string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, payload[:len(magic)], magic)
	}
	return payload[len(magic):], nil
}

// parseFooter decodes a framed footer. dataEnd is the file offset
// where block bytes must end (the footer frame's own offset): every
// index entry is bounds-checked against it before any ReadAt, so a
// corrupted index cannot read past the data region or allocate
// unboundedly (FuzzFooterIndex pins this).
func parseFooter(frame []byte, dataEnd int64) (*footerData, error) {
	payload, err := unwrapFrame(frame, footerMagic)
	if err != nil {
		return nil, err
	}
	c := &cursor{buf: payload}
	headCRC := c.uvarint()
	if c.err == nil && headCRC > math.MaxUint32 {
		c.fail("header crc %d overflows 32 bits", headCRC)
	}
	nBlocks := c.uvarint()
	if c.err == nil && nBlocks > maxFooterBlocks {
		c.fail("block index of %d entries exceeds %d", nBlocks, maxFooterBlocks)
	}
	fd := &footerData{headCRC: uint32(headCRC), bits: map[int]*bitState{}}
	var sumRows uint64
	for i := uint64(0); c.err == nil && i < nBlocks; i++ {
		var b blockInfo
		off := c.uvarint()
		if c.err == nil && off > math.MaxInt64 {
			c.fail("block %d offset %d overflows", i, off)
		}
		b.Offset = int64(off)
		b.Length = c.intv()
		b.Rows = c.intv()
		b.BitLo = c.intv()
		b.BitHi = c.intv()
		if c.err != nil {
			break
		}
		if b.Length > MaxBlockBytes {
			c.fail("block %d length %d exceeds %d", i, b.Length, MaxBlockBytes)
			break
		}
		if b.BitHi <= b.BitLo {
			c.fail("block %d bit range [%d, %d)", i, b.BitLo, b.BitHi)
			break
		}
		if b.Offset < int64(len(fileMagic))+1 || b.Offset+int64(b.Length) > dataEnd {
			c.fail("block %d span [%d, %d) outside data region [%d, %d)",
				i, b.Offset, b.Offset+int64(b.Length), len(fileMagic)+1, dataEnd)
			break
		}
		sumRows += uint64(b.Rows)
		fd.blocks = append(fd.blocks, b)
	}
	fd.rows = c.uvarint()
	if c.err == nil && fd.rows != sumRows {
		c.fail("footer declares %d rows, block index sums to %d", fd.rows, sumRows)
	}

	nBits := c.uvarint()
	if c.err == nil && nBits > maxFooterBits {
		c.fail("aggregate index of %d bits exceeds %d", nBits, maxFooterBits)
	}
	for i := uint64(0); c.err == nil && i < nBits; i++ {
		bit := c.intv()
		st := newBitState()
		st.trials = c.intv()
		st.catastrophic = c.intv()
		if c.err == nil && st.catastrophic > st.trials {
			c.fail("bit %d: %d catastrophic of %d trials", bit, st.catastrophic, st.trials)
			break
		}
		nNames := c.uvarint()
		if c.err == nil && nNames > wire.MaxNames {
			c.fail("bit %d: name table of %d entries exceeds %d", bit, nNames, wire.MaxNames)
			break
		}
		for j := uint64(0); c.err == nil && j < nNames; j++ {
			name := c.str()
			st.fieldCounts[name] = c.uvarint()
		}
		st.rel = readMoments(c)
		st.abs = readMoments(c)
		st.relSumLog = c.float()
		st.relLogN = c.uvarint()
		st.relSketch = readSketch(c)
		st.absSketch = readSketch(c)
		if c.err == nil {
			if _, dup := fd.bits[bit]; dup {
				c.fail("bit %d listed twice in aggregate index", bit)
				break
			}
			fd.bits[bit] = st
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return fd, nil
}
