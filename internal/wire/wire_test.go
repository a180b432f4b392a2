package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"positres/internal/core"
	"positres/internal/numfmt"
)

// sampleTrials builds a deterministic, representative trial slice:
// real posit32 encode/decode round trips with special values mixed in
// (NaN faulty values, zero, negative), exercising every field of
// core.Trial.
func sampleTrials(t *testing.T, n int) []core.Trial {
	t.Helper()
	codec, err := numfmt.Lookup("posit32")
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1.5, -2.25, 0.001953125, 12345.678, -0.75, 3.0e8, 0}
	names := []string{"sign", "regime", "exponent", "fraction"}
	out := make([]core.Trial, n)
	for i := range out {
		v := values[i%len(values)]
		bits := codec.Encode(v)
		tr := &out[i]
		tr.Field = "Hurricane/Vf30"
		tr.Codec = codec.Name()
		tr.Bit = i % codec.Width()
		tr.Seq = i
		tr.Index = i * 7
		tr.OrigValue = v
		tr.ReprValue = codec.Decode(bits)
		tr.OrigBits = bits
		tr.FaultyBits = bits ^ (1 << uint(i%codec.Width()))
		tr.FaultyVal = codec.Decode(tr.FaultyBits)
		tr.FieldName = names[i%len(names)]
		tr.RegimeK = i % 5
		tr.AbsErr = math.Abs(tr.FaultyVal - tr.ReprValue)
		tr.RelErr = tr.AbsErr / math.Abs(tr.ReprValue)
		tr.Catastrophic = i%3 == 0
		if i%11 == 5 {
			tr.FaultyVal = math.NaN()
			tr.AbsErr = math.NaN()
			tr.RelErr = math.Inf(1)
			tr.Catastrophic = true
		}
	}
	return out
}

// trialsEqual compares two trials bit-exactly (NaN payloads included),
// the lossless guarantee the wire format promises.
func trialsEqual(a, b *core.Trial) bool {
	fb := math.Float64bits
	return a.Field == b.Field && a.Codec == b.Codec &&
		a.Bit == b.Bit && a.Seq == b.Seq && a.Index == b.Index &&
		fb(a.OrigValue) == fb(b.OrigValue) && fb(a.ReprValue) == fb(b.ReprValue) &&
		a.OrigBits == b.OrigBits && a.FaultyBits == b.FaultyBits &&
		fb(a.FaultyVal) == fb(b.FaultyVal) &&
		a.FieldName == b.FieldName && a.RegimeK == b.RegimeK &&
		fb(a.AbsErr) == fb(b.AbsErr) && fb(a.RelErr) == fb(b.RelErr) &&
		a.Catastrophic == b.Catastrophic
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 313} {
		in := sampleTrials(t, n)
		frame, err := EncodeFrame(in)
		if err != nil {
			t.Fatalf("EncodeFrame(%d trials): %v", n, err)
		}
		out, consumed, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(%d trials): %v", n, err)
		}
		if consumed != len(frame) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", consumed, len(frame))
		}
		if len(out) != len(in) {
			t.Fatalf("round trip: %d trials in, %d out", len(in), len(out))
		}
		for i := range in {
			if !trialsEqual(&in[i], &out[i]) {
				t.Fatalf("trial %d drifted over the wire:\n in: %+v\nout: %+v", i, in[i], out[i])
			}
		}
	}
}

// TestRoundTripMatchesCSV pins the core property the protocol
// migration rests on: binary and CSV transport carry the same trials,
// so the final CSVs cannot depend on which encoding a shard used.
func TestRoundTripMatchesCSV(t *testing.T) {
	in := sampleTrials(t, 64)
	frame, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	viaWire, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := core.WriteTrialsCSV(&csvBuf, in); err != nil {
		t.Fatal(err)
	}
	viaCSV, err := core.ReadTrialsCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	var w1, w2 bytes.Buffer
	if err := core.WriteTrialsCSV(&w1, viaWire); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteTrialsCSV(&w2, viaCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("CSV render of wire-transported trials differs from CSV-transported trials")
	}
}

func TestReadFrame(t *testing.T) {
	in := sampleTrials(t, 9)
	frame, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing bytes after the frame must be left unread.
	stream := bytes.NewReader(append(append([]byte{}, frame...), "extra"...))
	out, n, err := ReadFrame(stream)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("ReadFrame read %d bytes, frame is %d", n, len(frame))
	}
	if stream.Len() != len("extra") {
		t.Fatalf("ReadFrame consumed past the frame: %d bytes remain", stream.Len())
	}
	if len(out) != len(in) {
		t.Fatalf("ReadFrame: %d trials, want %d", len(out), len(in))
	}
}

func TestEncodeRejectsMixedShard(t *testing.T) {
	in := sampleTrials(t, 4)
	in[2].Codec = "posit16"
	if _, err := EncodeFrame(in); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mixed-codec frame: err = %v, want ErrMalformed", err)
	}
	in = sampleTrials(t, 4)
	in[1].Field = "other/field"
	if _, err := EncodeFrame(in); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mixed-field frame: err = %v, want ErrMalformed", err)
	}
}

// TestDecodeDamagedFrames is the fault table of docs/WIRE.md: every
// damage class maps to a sentinel error, and every sentinel error is a
// retryable shard failure at the runner (never merged data).
func TestDecodeDamagedFrames(t *testing.T) {
	good, err := EncodeFrame(sampleTrials(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty input", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short prefix", func(b []byte) []byte { return b[:3] }, ErrTruncated},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"truncated crc", func(b []byte) []byte { return b[:len(b)-2] }, ErrTruncated},
		{"flipped payload bit", func(b []byte) []byte {
			b[len(b)/2] ^= 0x10
			return b
		}, ErrChecksum},
		{"flipped crc bit", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}, ErrChecksum},
		{"bad magic", func(b []byte) []byte {
			b[4] = 'X'
			return fixCRC(b)
		}, ErrMagic},
		{"future version", func(b []byte) []byte {
			b[8] = Version + 1
			return fixCRC(b)
		}, ErrVersion},
		{"column count skew", func(b []byte) []byte {
			b[9] = byte(len(trialWireHeader) + 1)
			return fixCRC(b)
		}, ErrMalformed},
		{"oversized declared length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, MaxFrameBytes+1)
			return b
		}, ErrMalformed},
		{"length prefix below crc", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 2)
			return b[:6]
		}, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte{}, good...))
			if _, _, err := DecodeFrame(b); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame(%s): err = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// fixCRC recomputes a mutated frame's CRC so structural damage is
// tested on its own, not masked by the checksum gate.
func fixCRC(frame []byte) []byte {
	payload := frame[4 : len(frame)-4]
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(payload))
	return frame
}

func TestAccepts(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{ContentType, true},
		{ContentType + ", text/csv", true},
		{"text/csv, " + ContentType, true},
		{ContentType + ";v=1", true},
		{" " + ContentType + " ; q=0.9, text/csv", true},
		{"text/csv", false},
		{"", false},
		{"*/*", false},
		{"application/*", false},
		{ContentType + "x", false},
		{ContentType + ";q=0, text/csv", false},
		{ContentType + "; Q=0.000, text/csv", false},
		{ContentType + ";q=0, " + ContentType + ";q=0.5", true},
	}
	for _, tc := range cases {
		if got := Accepts(tc.header); got != tc.want {
			t.Errorf("Accepts(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestAppendFrameReusesBuffer(t *testing.T) {
	in := sampleTrials(t, 33)
	first, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(first))
	buf, err = AppendFrame(buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, first) {
		t.Fatal("AppendFrame into a preallocated buffer produced different bytes")
	}
	// Appending after existing content leaves that content intact.
	withPrefix, err := AppendFrame([]byte("head"), in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(withPrefix), "head") || !bytes.Equal(withPrefix[4:], first) {
		t.Fatal("AppendFrame clobbered existing buffer content")
	}
}

// TestAppendTrialsReusesBuffer pins the decoder's append form: frames
// decoded one after another into one buffer keep every earlier row
// and reuse its capacity, and a failed decode leaves the buffer's
// length where it was.
func TestAppendTrialsReusesBuffer(t *testing.T) {
	in := sampleTrials(t, 40)
	first, err := EncodeFrame(in[:25])
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeFrame(in[25:])
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]core.Trial, 0, len(in))
	buf, n, err := AppendTrials(buf, first)
	if err != nil || n != len(first) {
		t.Fatalf("first frame: consumed %d of %d bytes, %v", n, len(first), err)
	}
	buf, n, err = AppendTrials(buf, second)
	if err != nil || n != len(second) {
		t.Fatalf("second frame: consumed %d of %d bytes, %v", n, len(second), err)
	}
	if len(buf) != len(in) || cap(buf) != len(in) {
		t.Fatalf("buffer holds %d rows in capacity %d, want %d in %d", len(buf), cap(buf), len(in), len(in))
	}
	for i := range in {
		if !trialsEqual(&in[i], &buf[i]) {
			t.Fatalf("trial %d drifted:\n in: %+v\nout: %+v", i, in[i], buf[i])
		}
	}

	bad := append([]byte(nil), second...)
	bad[len(bad)/2] ^= 0x01
	kept, _, err := AppendTrials(buf[:25], bad)
	if !errors.Is(err, ErrChecksum) || len(kept) != 25 {
		t.Fatalf("damaged frame: %d rows kept, err %v; want 25 and ErrChecksum", len(kept), err)
	}
}

// TestWireHeaderMatchesCSVHeader keeps the two schema registries in
// lockstep by construction (positlint's csvheader rule enforces the
// same agreement statically; this is the runtime cross-check).
func TestWireHeaderMatchesCSVHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := core.WriteTrialsCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	csvHeader := strings.TrimRight(buf.String(), "\r\n")
	if got := strings.Join(trialWireHeader, ","); got != csvHeader {
		t.Fatalf("trialWireHeader = %s\ncore CSV header = %s", got, csvHeader)
	}
}
