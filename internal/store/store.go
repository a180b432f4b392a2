// Package store implements the append-only trial store — the on-disk
// format that lets a campaign outgrow memory. A .pts file holds every
// trial of one (field, codec) pair as one block per appended shard,
// each block an internal/wire frame byte for byte (the encoding the
// shard hop already uses: varints for the integer columns, raw
// little-endian float64 bit patterns for the value columns), followed
// by a CRC-guarded footer that indexes the blocks and carries the
// campaign's online aggregates: count, mean, max and a quantile sketch
// per (field, bit), folded in at append time so a summary is
// O(fields×bits) regardless of trial count. docs/STORE.md is the
// normative format specification.
//
// The write path is the campaign's durable record. Blocks append to a
// pending file at atomicio.PendingPath(path) and each AppendShard
// returns only once its block is fsynced; the final .pts appears only
// when Seal lands the footer and renames the file into place. After a
// crash, Resume keeps the verified block prefix of the pending file
// (truncating at the first torn, corrupt, duplicate or unplanned
// block) and re-folds the aggregates from it, so a resumed campaign
// appends only its missing shards (docs/STORE.md, "Durable append and
// recovery").
//
// Reading back is lossless by construction: a frame stores every
// float's exact bit pattern, so RenderCSV reproduces
// core.WriteTrialsCSV byte for byte (pinned by test), and the per-bit
// aggregates off the footer match core.AggregateByBit exactly for
// count, mean, max, geometric mean and field shares (medians are
// sketch-approximate within SketchAlpha relative accuracy; means
// reassociate above internal/stats' parallel threshold).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"positres/internal/wire"
)

// Version is the store format version this package writes. A reader
// rejects every other value with ErrVersion — like the wire format,
// compatibility is all-or-nothing per file (docs/STORE.md,
// "Compatibility policy"): a reader never guesses at a layout. Blocks
// are wire frames, so a wire.Version bump is a Version bump too.
const Version = 2

// The three magics that structure a .pts file (blocks open with the
// wire frame's own "PTRW"). Each spells its role so a hex dump is
// self-describing and a mis-routed payload fails fast.
const (
	fileMagic   = "PTSC" // file header: posit trial store
	footerMagic = "PTSF" // footer: block index + aggregates
	endMagic    = "PTSE" // 8-byte trailer locating the footer
)

// Ext is the store file extension.
const Ext = ".pts"

// MaxBlockBytes bounds the declared length of any block or footer
// frame a reader will honor: wire.MaxFrameBytes (1 GiB), far above
// any real shard, small enough to refuse a corrupted length before
// allocating for it.
const MaxBlockBytes = wire.MaxFrameBytes

// maxStringLen bounds each packed string (bit-field names in the
// footer, the header field/codec pair); real values are tens of bytes.
const maxStringLen = 1 << 16

// Decode errors, one per failure class, matched with errors.Is. A
// damaged file is refused whole — a reader never serves rows from a
// block whose CRC does not match.
var (
	// ErrCorrupt means a magic, CRC, length or index in the file is
	// inconsistent with the format.
	ErrCorrupt = errors.New("store: corrupt file")
	// ErrVersion means the file was written by an unsupported format
	// version.
	ErrVersion = errors.New("store: unsupported version")
	// ErrSealed means a write was attempted on a Writer that has
	// already sealed or aborted its file.
	ErrSealed = errors.New("store: writer already sealed")
)

// FileName returns the store file name for one (field, codec) pair —
// the same sanitization the CSV result files use (slashes in dataset
// field keys become underscores), with the .pts extension.
func FileName(field, codec string) string {
	return strings.ReplaceAll(field, "/", "_") + "_" + codec + Ext
}

// appendString appends a uvarint length followed by the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// cursor is a bounds-checked sticky-error reader over the header or
// the footer, following wire's decoder idiom: the first failure
// sticks and turns every later read into a no-op, so index loops stay
// branch-light and check once per entry.
type cursor struct {
	buf []byte
	off int
	err error
}

// fail records the first error with positional context.
func (c *cursor) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, c.off, fmt.Sprintf(format, args...))
	}
}

// byte reads one byte.
func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.fail("unexpected end of data")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

// uvarint reads one unsigned varint.
func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return v
}

// varint reads one zigzag varint as an int.
func (c *cursor) varint() int {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return int(v)
}

// intv reads a uvarint that must fit a non-negative int32-sized int.
func (c *cursor) intv() int {
	v := c.uvarint()
	if c.err == nil && v > math.MaxInt32 {
		c.fail("value %d out of int range", v)
		return 0
	}
	return int(v)
}

// float reads one fixed-width little-endian float64 bit pattern.
func (c *cursor) float() float64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.buf) {
		c.fail("unexpected end of data in float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v
}

// str reads one length-prefixed string.
func (c *cursor) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > maxStringLen {
		c.fail("string of %d bytes exceeds %d", n, maxStringLen)
		return ""
	}
	if c.off+int(n) > len(c.buf) {
		c.fail("string of %d bytes overruns data", n)
		return ""
	}
	s := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}
