// Package wire implements the packed binary trial encoding of the
// positserve worker protocol: length-prefixed frames carrying the
// trial records of one shard (docs/WIRE.md is the normative format
// specification).
//
// A frame is a little-endian length prefix, a payload and a CRC-32
// (IEEE) of the payload — the same integrity discipline the CSV path
// applies with its X-Positres-Crc32 trailer, moved inside the frame so
// a binary shard response is self-verifying. The payload packs the
// shard-constant strings (dataset field, codec, the bit-field name
// vocabulary) once per frame and every trial row as varints plus five
// fixed-width float64 bit patterns, so the encoding is lossless by
// construction: DecodeFrame(EncodeFrame(trials)) reproduces the exact
// Trial values, bit for bit, which is what keeps distributed campaign
// CSVs byte-identical to local ones.
//
// A frame is the one binary trial encoding in positres. It travels
// on the coordinator↔worker hop, negotiated per request via the
// Accept header (see Accepts) so an old worker or coordinator falls
// back to CSV without configuration, and every block of a .pts store
// (internal/store) is one frame, byte for byte — so a change to the
// frame layout is a new store version too. CSV remains the only
// export and rendering format (GET /v1/campaigns/{id}/results).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"positres/internal/core"
)

// ContentType is the media type of a binary trial frame, offered by
// the coordinator in Accept and announced by the worker in
// Content-Type. Anything else on the shard hop means CSV.
const ContentType = "application/x-positres-trials"

// Version is the wire format version this package encodes. A decoder
// rejects every other value with ErrVersion — version negotiation is
// deliberately all-or-nothing per frame (docs/WIRE.md, "Compatibility
// policy"): a mixed fleet falls back to CSV rather than guessing.
const Version = 1

// magic opens every payload; it spells "PTRW" (posit trial wire) so a
// frame is recognizable in a hex dump and a CSV body mis-routed into
// the binary decoder fails immediately with ErrMagic.
const magic = "PTRW"

// MaxFrameBytes bounds the declared frame length ReadFrame will
// honor (1 GiB — far above any real shard, small enough to refuse a
// corrupted length prefix before allocating).
const MaxFrameBytes = 1 << 30

// maxStringLen bounds each packed string (field key, codec name,
// bit-field name); real values are tens of bytes.
const maxStringLen = 1 << 16

// MaxNames bounds the bit-field name table: a row addresses its name
// with 7 bits of the meta byte.
const MaxNames = 128

// Decode errors, one per failure class. All are returned wrapped with
// positional detail; match with errors.Is. Every one of them is a
// retryable shard failure at the runner — a damaged frame is refused
// whole, never partially merged.
var (
	// ErrTruncated means the data ends before the declared frame does.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMagic means the payload does not open with "PTRW".
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion means the frame was encoded by an unsupported format
	// version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrChecksum means the payload does not match its CRC-32.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrMalformed means the payload structure is inconsistent
	// (out-of-range varint, bad string length, name index past the
	// table, trailing garbage).
	ErrMalformed = errors.New("wire: malformed frame")
)

// trialWireHeader is the logical column list of one trial row, in
// wire order. It deliberately mirrors core's CSV trialHeader —
// positlint's csvheader rule cross-checks both registries against
// core.Trial, so adding a Trial field without extending the wire
// encoding fails tier-1.
var trialWireHeader = []string{
	"field", "codec", "bit", "seq", "index",
	"orig_value", "repr_value", "orig_bits", "faulty_bits", "faulty_value",
	"bit_field", "regime_k", "abs_err", "rel_err", "catastrophic",
}

// Accepts reports whether an Accept header value asks for the binary
// trial encoding: an element whose media type is exactly ContentType
// (see AcceptsMedia). Wildcards do not opt in — CSV is the default a
// generic client gets.
func Accepts(header string) bool {
	return AcceptsMedia(header, func(mediaType string) bool { return mediaType == ContentType })
}

// AcceptsMedia reports whether any comma-separated element of an
// Accept header value has a media type (the part before parameters,
// trimmed) that match accepts and no q=0 parameter, which RFC 9110
// defines as "not acceptable". The service's content negotiation,
// binary frames on the shard hop and JSON aggregates on the results
// endpoint, goes through it.
func AcceptsMedia(header string, match func(mediaType string) bool) bool {
	for _, part := range strings.Split(header, ",") {
		params := strings.Split(part, ";")
		if match(strings.TrimSpace(params[0])) && !refused(params[1:]) {
			return true
		}
	}
	return false
}

// refused reports whether a media range's parameters carry q=0.
func refused(params []string) bool {
	for _, p := range params {
		name, value, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(name), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		return err == nil && q == 0
	}
	return false
}

// EncodeFrame packs trials into one binary frame. All trials must
// share one (Field, Codec) pair — the shard invariant — and use at
// most MaxNames distinct bit-field names; violations are encoding
// errors, not silent truncation. An empty slice encodes a valid empty
// frame.
func EncodeFrame(trials []core.Trial) ([]byte, error) {
	return AppendFrame(nil, trials)
}

// AppendFrame appends the frame encoding of trials to dst and returns
// the extended slice, allowing callers on the hot path to reuse one
// buffer across shards. See EncodeFrame for the input invariants.
func AppendFrame(dst []byte, trials []core.Trial) ([]byte, error) {
	field, codec := "", ""
	if len(trials) > 0 {
		field, codec = trials[0].Field, trials[0].Codec
	}
	if len(field) > maxStringLen || len(codec) > maxStringLen {
		return nil, fmt.Errorf("%w: field/codec name over %d bytes", ErrMalformed, maxStringLen)
	}

	// Bit-field name vocabulary: a handful of strings (sign, regime,
	// exponent, fraction, mantissa, ...) shared by every row. The table
	// is that short, so a linear search finds a row's entry faster
	// than a map would, and the encoder allocates nothing of its own.
	var table [MaxNames]string
	names := table[:0]
	for i := range trials {
		tr := &trials[i]
		if tr.Field != field || tr.Codec != codec {
			return nil, fmt.Errorf("%w: mixed (field, codec) in one frame: (%s, %s) vs (%s, %s)",
				ErrMalformed, tr.Field, tr.Codec, field, codec)
		}
		if slices.Contains(names, tr.FieldName) {
			continue
		}
		if len(names) == MaxNames {
			return nil, fmt.Errorf("%w: more than %d distinct bit-field names", ErrMalformed, MaxNames)
		}
		if len(tr.FieldName) > maxStringLen {
			return nil, fmt.Errorf("%w: bit-field name over %d bytes", ErrMalformed, maxStringLen)
		}
		names = append(names, tr.FieldName)
	}

	// Payload, then patch the length prefix and append the CRC.
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	p := len(dst)                 // payload start
	dst = append(dst, magic...)
	dst = append(dst, Version, byte(len(trialWireHeader)))
	dst = appendString(dst, field)
	dst = appendString(dst, codec)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, nm := range names {
		dst = appendString(dst, nm)
	}
	dst = binary.AppendUvarint(dst, uint64(len(trials)))
	var fixed [40]byte
	for i := range trials {
		tr := &trials[i]
		dst = binary.AppendUvarint(dst, uint64(tr.Bit))
		dst = binary.AppendUvarint(dst, uint64(tr.Seq))
		dst = binary.AppendUvarint(dst, uint64(tr.Index))
		dst = binary.AppendUvarint(dst, tr.OrigBits)
		dst = binary.AppendUvarint(dst, tr.FaultyBits)
		meta := byte(slices.Index(names, tr.FieldName)) << 1
		if tr.Catastrophic {
			meta |= 1
		}
		dst = append(dst, meta)
		dst = binary.AppendVarint(dst, int64(tr.RegimeK))
		binary.LittleEndian.PutUint64(fixed[0:], math.Float64bits(tr.OrigValue))
		binary.LittleEndian.PutUint64(fixed[8:], math.Float64bits(tr.ReprValue))
		binary.LittleEndian.PutUint64(fixed[16:], math.Float64bits(tr.FaultyVal))
		binary.LittleEndian.PutUint64(fixed[24:], math.Float64bits(tr.AbsErr))
		binary.LittleEndian.PutUint64(fixed[32:], math.Float64bits(tr.RelErr))
		dst = append(dst, fixed[:]...)
	}
	crc := crc32.ChecksumIEEE(dst[p:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-p))
	return dst, nil
}

// appendString appends a uvarint length followed by the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeFrame decodes one frame from the front of data, returning the
// trials and the number of bytes consumed (length prefix included).
// It is AppendTrials with a nil dst.
func DecodeFrame(data []byte) ([]core.Trial, int, error) {
	trials, consumed, err := AppendTrials(nil, data)
	if err != nil {
		return nil, 0, err
	}
	return trials, consumed, nil
}

// AppendTrials decodes one frame from the front of data, appends its
// trials to dst and returns the extended slice and the number of bytes
// consumed (length prefix included), so a caller decoding many frames
// can reuse one trial buffer. On error it returns dst with its
// original length. The CRC is verified before any row is
// interpreted, the version before anything else in the payload, and
// every length and index is bounds-checked, so arbitrary input cannot
// do worse than return an error (FuzzDecodeFrame pins this).
func AppendTrials(dst []core.Trial, data []byte) ([]core.Trial, int, error) {
	if len(data) < 4 {
		return dst, 0, fmt.Errorf("%w: %d bytes, need 4-byte length prefix", ErrTruncated, len(data))
	}
	frameLen := binary.LittleEndian.Uint32(data)
	if frameLen > MaxFrameBytes {
		return dst, 0, fmt.Errorf("%w: declared length %d exceeds %d", ErrMalformed, frameLen, MaxFrameBytes)
	}
	if uint64(len(data)-4) < uint64(frameLen) {
		return dst, 0, fmt.Errorf("%w: declared length %d, %d bytes available", ErrTruncated, frameLen, len(data)-4)
	}
	consumed := 4 + int(frameLen)
	if frameLen < 4 {
		return dst, 0, fmt.Errorf("%w: frame length %d below CRC size", ErrMalformed, frameLen)
	}
	payload := data[4 : consumed-4]
	wantCRC := binary.LittleEndian.Uint32(data[consumed-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return dst, 0, fmt.Errorf("%w: crc32 %08x, frame announces %08x", ErrChecksum, got, wantCRC)
	}

	d := decoder{buf: payload}
	if len(payload) < len(magic)+2 {
		return dst, 0, fmt.Errorf("%w: payload of %d bytes", ErrMalformed, len(payload))
	}
	if string(payload[:len(magic)]) != magic {
		return dst, 0, fmt.Errorf("%w: %q", ErrMagic, payload[:len(magic)])
	}
	d.off = len(magic)
	if v := payload[d.off]; v != Version {
		return dst, 0, fmt.Errorf("%w: frame version %d, this decoder speaks %d", ErrVersion, v, Version)
	}
	if cols := payload[d.off+1]; int(cols) != len(trialWireHeader) {
		return dst, 0, fmt.Errorf("%w: frame carries %d columns per row, this decoder maps %d",
			ErrMalformed, cols, len(trialWireHeader))
	}
	d.off += 2

	field := d.str()
	codec := d.str()
	nNames := d.uvarint()
	if d.err == nil && nNames > MaxNames {
		d.fail("name table of %d entries exceeds %d", nNames, MaxNames)
	}
	names := make([]string, 0, 8)
	for i := uint64(0); d.err == nil && i < nNames; i++ {
		names = append(names, d.str())
	}
	nRows := d.uvarint()
	if d.err != nil {
		return dst, 0, d.err
	}
	// Each row is at least 7 varint/meta bytes plus 40 fixed bytes;
	// refuse a row count the remaining payload cannot possibly hold
	// before allocating for it.
	if remaining := uint64(len(d.buf) - d.off); nRows > remaining/41 {
		return dst, 0, fmt.Errorf("%w: %d rows declared, %d payload bytes remain", ErrMalformed, nRows, remaining)
	}
	base := len(dst)
	out := slices.Grow(dst, int(nRows))[:base+int(nRows)]
	trials := out[base:]
	for i := range trials {
		tr := &trials[i]
		tr.Field = field
		tr.Codec = codec
		tr.Bit = d.intv()
		tr.Seq = d.intv()
		tr.Index = d.intv()
		tr.OrigBits = d.uvarint()
		tr.FaultyBits = d.uvarint()
		meta := d.byte()
		tr.Catastrophic = meta&1 != 0
		if idx := int(meta >> 1); d.err == nil {
			if idx >= len(names) {
				d.fail("row %d bit-field name index %d past table of %d", i, idx, len(names))
			} else {
				tr.FieldName = names[idx]
			}
		}
		tr.RegimeK = d.varint()
		tr.OrigValue = d.float()
		tr.ReprValue = d.float()
		tr.FaultyVal = d.float()
		tr.AbsErr = d.float()
		tr.RelErr = d.float()
		if d.err != nil {
			return dst, 0, d.err
		}
	}
	if d.off != len(d.buf) {
		return dst, 0, fmt.Errorf("%w: %d trailing payload bytes after last row", ErrMalformed, len(d.buf)-d.off)
	}
	return out, consumed, nil
}

// ReadFrame reads exactly one frame from r (a streaming HTTP body),
// returning the trials and the total bytes read. The length prefix is
// validated against MaxFrameBytes before the body is buffered.
func ReadFrame(r io.Reader) ([]core.Trial, int, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: length prefix: %v", ErrTruncated, err)
	}
	frameLen := binary.LittleEndian.Uint32(prefix[:])
	if frameLen > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: declared length %d exceeds %d", ErrMalformed, frameLen, MaxFrameBytes)
	}
	buf := make([]byte, 4+frameLen)
	copy(buf, prefix[:])
	n, err := io.ReadFull(r, buf[4:])
	if err != nil {
		return nil, 4 + n, fmt.Errorf("%w: %d of %d frame bytes: %v", ErrTruncated, n, frameLen, err)
	}
	trials, consumed, err := DecodeFrame(buf)
	return trials, consumed, err
}

// decoder is a bounds-checked cursor over one payload. The first
// failure sticks in err and turns every later read into a no-op, so
// row loops stay branch-light and check once per row.
type decoder struct {
	buf []byte
	off int
	err error
}

// fail records the first error with positional context.
func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d: %s", ErrMalformed, d.off, fmt.Sprintf(format, args...))
	}
}

// byte reads one byte.
func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// uvarint reads one unsigned varint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// varint reads one zigzag varint as an int.
func (d *decoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return int(v)
}

// intv reads a uvarint that must fit a non-negative int.
func (d *decoder) intv() int {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("value %d out of int range", v)
		return 0
	}
	return int(v)
}

// float reads one fixed-width little-endian float64 bit pattern.
func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("unexpected end of payload in float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// str reads one length-prefixed string.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail("string of %d bytes exceeds %d", n, maxStringLen)
		return ""
	}
	if d.off+int(n) > len(d.buf) {
		d.fail("string of %d bytes overruns payload", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
