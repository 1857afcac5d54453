package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// The snapshot codec: a versioned, deterministic binary encoding.  Every
// value is little-endian and fixed-width (floats as IEEE-754 bit
// patterns), so encoding the same state twice yields the same bytes on
// every platform — the property the crash-recovery equivalence tests
// lean on.  A blob is
//
//	magic (4) | version (1) | payload | crc32c of everything before (4)
//
// and the Decoder refuses anything structurally wrong with an error
// wrapping ErrCorruptSnapshot: wrong magic, unknown version, checksum
// mismatch, reads past the payload, or length prefixes larger than the
// remaining bytes.  Decoding never panics on hostile input (the fuzz
// test in codec_fuzz_test.go pins this).

// codecMagic spells "MODS" — Media-on-Demand Snapshot.
const codecMagic = 0x4d4f4453

// codecVersion is the current snapshot format version.  Bump it on any
// incompatible payload change; old blobs then fail decoding cleanly.
// Version 2 replaced the serve layer's full finalized-interval history
// with a durable settle point, a busy-time sum and the kept intervals;
// version 1 blobs are refused.
const codecVersion = 2

var codecTable = crc32.MakeTable(crc32.Castagnoli)

// Encoder builds one snapshot blob.  Start it with NewEncoder (or Reset),
// append values with the typed methods, then seal with Finish.  The zero
// value is an empty part: see ResetPart.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the header already laid down.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 256)}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, codecMagic)
	e.buf = append(e.buf, codecVersion)
	return e
}

// Reset discards the blob under construction (including a sealed one)
// and lays the header down again on the retained buffer, making the
// Encoder ready for a fresh blob without reallocating.  A long-lived
// writer that snapshots on a cadence holds one Encoder and Resets it per
// snapshot.  Safe only once the previous Finish result has been consumed
// (SaveSnapshot copies or writes the bytes before returning).
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.buf = binary.LittleEndian.AppendUint32(e.buf, codecMagic)
	e.buf = append(e.buf, codecVersion)
}

// ResetPart empties the Encoder without laying a header down.  What it
// then holds is a part: a run of values that another Encoder's blob takes
// whole through Raw, so one section can be encoded apart from the rest.
// The buffer is kept, so a recycled part encodes without reallocating.
func (e *Encoder) ResetPart() { e.buf = e.buf[:0] }

// Raw appends a part's bytes verbatim.
func (e *Encoder) Raw(part *Encoder) { e.buf = append(e.buf, part.buf...) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a fixed-width 32-bit value.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width 64-bit value.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a signed 64-bit value (two's-complement bit pattern).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern, preserving every
// value bit-exactly (±Inf, NaN payloads, signed zero included).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends a length-prefixed float64 slice.  It grows the buffer
// once and fills it through a local slice: an epoch scheduler's section
// carries its open epoch's trace, which the shard loop encodes.
func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	buf := slices.Grow(e.buf, 8*len(vs))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	e.buf = buf
}

// Finish seals the blob: the checksum over header and payload is
// appended and the complete byte slice returned.  The Encoder must not
// be used afterwards except to Reset it for a fresh blob (which reclaims
// the returned slice's backing array).
func (e *Encoder) Finish() []byte {
	sum := crc32.Checksum(e.buf, codecTable)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	return e.buf
}

// Decoder reads one snapshot blob.  Errors are sticky: after the first
// failed read every subsequent read returns the zero value, and Err
// reports what went wrong.  All failures wrap ErrCorruptSnapshot.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder validates the blob's frame — magic, version, checksum —
// and returns a Decoder positioned at the first payload byte.
func NewDecoder(data []byte) (*Decoder, error) {
	const header = 4 + 1
	const trailer = 4
	if len(data) < header+trailer {
		return nil, fmt.Errorf("%w: blob of %d bytes is shorter than the frame", ErrCorruptSnapshot, len(data))
	}
	body, sumBytes := data[:len(data)-trailer], data[len(data)-trailer:]
	if got, want := crc32.Checksum(body, codecTable), binary.LittleEndian.Uint32(sumBytes); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptSnapshot, want, got)
	}
	if magic := binary.LittleEndian.Uint32(body); magic != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %08x", ErrCorruptSnapshot, magic)
	}
	if v := body[4]; v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d (want %d)", ErrCorruptSnapshot, v, codecVersion)
	}
	return &Decoder{buf: body, off: header}, nil
}

// Err returns the first decoding failure, or nil.  Callers must check it
// after the last read: a sticky error means every value read since the
// failure was a zero.
func (d *Decoder) Err() error { return d.err }

// fail records the first error (sticky).
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptSnapshot}, args...)...)
	}
}

// take returns the next n payload bytes, or nil after recording an error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("read of %d bytes at offset %d overruns the %d-byte payload", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a length prefix and bounds it by what the remaining
// payload could possibly hold at width bytes per element, so a corrupted
// length can never force a huge allocation.
func (d *Decoder) length(width int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(width) > int64(len(d.buf)-d.off) {
		d.fail("length prefix %d exceeds the %d remaining payload bytes", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// Len reads a length prefix for a caller-decoded sequence of elements at
// least width bytes wide, bounded like the built-in slice readers: a
// corrupted prefix promising more elements than the remaining payload
// could hold fails instead of forcing a huge allocation.
func (d *Decoder) Len(width int) int { return d.length(width) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.length(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a length-prefixed float64 slice (nil when empty).
func (d *Decoder) F64s() []float64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// Done verifies the payload was consumed exactly and returns the sticky
// error, if any.  Trailing garbage is corruption: a well-formed writer
// never leaves unread payload bytes.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail("%d trailing payload bytes", len(d.buf)-d.off)
	}
	return d.err
}
