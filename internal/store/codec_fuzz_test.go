package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// crc32Of is the test-side twin of the codec's checksum (Castagnoli).
func crc32Of(b []byte) uint32 { return crc32.Checksum(b, codecTable) }

// FuzzDecoder throws arbitrary bytes at the full decode surface: the
// decoder must classify every input as valid or ErrCorruptSnapshot and
// never panic, whatever read sequence follows.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.U8(1)
	e.U64(99)
	e.F64(2.75)
	e.String("seed")
	e.F64s([]float64{1, 2, 3})
	f.Add(e.Finish())
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x44, 0x4f, 0x4d, 0x01})
	f.Add(binary.LittleEndian.AppendUint32([]byte{0x53, 0x44, 0x4f, 0x4d, 0x01}, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("NewDecoder error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		// Exercise every read path; sticky errors keep this safe even when
		// the payload is garbage.
		d.U8()
		d.U32()
		d.U64()
		d.I64()
		d.F64()
		_ = d.String()
		d.F64s()
		if err := d.Done(); err != nil && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("Done error %v does not wrap ErrCorruptSnapshot", err)
		}
	})
}

// FuzzWalkFrames: arbitrary WAL bytes either replay cleanly (stopping at
// a torn tail) or fail with ErrCorruptSnapshot — never a panic.
func FuzzWalkFrames(f *testing.F) {
	f.Add(appendFrame(nil, []byte("one record")))
	f.Add(appendFrame(appendFrame(nil, []byte("a")), []byte("b")))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		err := walkFrames(data, func([]byte) error { return nil })
		if err != nil && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("walkFrames error %v does not wrap ErrCorruptSnapshot", err)
		}
	})
}

// FuzzCodecRoundTrip is the property test: arbitrary values encode then
// decode to bit-identical results, twice over to pin determinism.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint64(7), 1.5, "s", int64(-9), uint8(4))
	f.Add(uint8(0), uint64(math.MaxUint64), math.Inf(-1), "", int64(math.MinInt64), uint8(0))
	f.Add(uint8(255), uint64(0), math.NaN(), "longer string with spaces", int64(0), uint8(17))

	f.Fuzz(func(t *testing.T, u8 uint8, u64 uint64, fv float64, s string, i64 int64, n uint8) {
		fs := make([]float64, int(n)%32)
		for i := range fs {
			fs[i] = fv * float64(i+1)
		}
		encode := func() []byte {
			e := NewEncoder()
			e.U8(u8)
			e.U64(u64)
			e.F64(fv)
			e.String(s)
			e.I64(i64)
			e.F64s(fs)
			return e.Finish()
		}
		blob, blob2 := encode(), encode()
		if string(blob) != string(blob2) {
			t.Fatal("encoding is not deterministic")
		}

		d, err := NewDecoder(blob)
		if err != nil {
			t.Fatalf("NewDecoder on fresh encoding: %v", err)
		}
		if got := d.U8(); got != u8 {
			t.Fatalf("U8 = %d, want %d", got, u8)
		}
		if got := d.U64(); got != u64 {
			t.Fatalf("U64 = %d, want %d", got, u64)
		}
		if got := d.F64(); math.Float64bits(got) != math.Float64bits(fv) {
			t.Fatalf("F64 = %x, want %x", math.Float64bits(got), math.Float64bits(fv))
		}
		if got := d.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		if got := d.I64(); got != i64 {
			t.Fatalf("I64 = %d, want %d", got, i64)
		}
		gfs := d.F64s()
		if len(gfs) != len(fs) {
			t.Fatalf("F64s len = %d, want %d", len(gfs), len(fs))
		}
		for i := range fs {
			if math.Float64bits(gfs[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("F64s[%d] = %x, want %x", i, math.Float64bits(gfs[i]), math.Float64bits(fs[i]))
			}
		}
		if err := d.Done(); err != nil {
			t.Fatalf("Done on fresh encoding: %v", err)
		}

		// Any single-bit flip must be caught by the frame checksum.
		bad := append([]byte(nil), blob...)
		flip := int(u64 % uint64(len(bad)))
		bad[flip] ^= 1 << (u8 % 8)
		if string(bad) != string(blob) {
			if _, err := NewDecoder(bad); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("bit flip at %d went undetected: %v", flip, err)
			}
		}
	})
}
