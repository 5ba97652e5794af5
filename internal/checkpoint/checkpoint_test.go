package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

func buildSnapshot(t *testing.T) []byte {
	t.Helper()
	w := NewWriter(0xDEADBEEFCAFE)
	a := w.Section("alpha")
	a.U8(7)
	a.Bool(true)
	a.U32(123456)
	a.I64(-42)
	a.F64(math.Pi)
	a.F64(math.Copysign(0, -1))
	a.Str("hello, snapshot")
	a.F64s([]float64{1.5, -2.5, math.Inf(1)})
	a.I64s([]int64{9, -9})
	a.Ints([]int{3, 1, 4})
	a.Bytes([]byte{0xAA, 0xBB})
	b := w.Section("beta")
	b.Int(99)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	raw := buildSnapshot(t)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Fingerprint() != 0xDEADBEEFCAFE {
		t.Fatalf("fingerprint = %#x", r.Fingerprint())
	}
	if got := r.Sections(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v", got)
	}

	d, err := r.Section("alpha")
	if err != nil {
		t.Fatalf("Section(alpha): %v", err)
	}
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if v := d.U32(); v != 123456 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero lost: %v", v)
	}
	if v := d.Str(); v != "hello, snapshot" {
		t.Fatalf("Str = %q", v)
	}
	fs := d.F64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.5 || !math.IsInf(fs[2], 1) {
		t.Fatalf("F64s = %v", fs)
	}
	is := d.I64s()
	if len(is) != 2 || is[0] != 9 || is[1] != -9 {
		t.Fatalf("I64s = %v", is)
	}
	ints := d.Ints()
	if len(ints) != 3 || ints[0] != 3 || ints[2] != 4 {
		t.Fatalf("Ints = %v", ints)
	}
	bs := d.Bytes()
	if len(bs) != 2 || bs[0] != 0xAA || bs[1] != 0xBB {
		t.Fatalf("Bytes = %v", bs)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err after full decode: %v", err)
	}

	d2, err := r.Section("beta")
	if err != nil {
		t.Fatalf("Section(beta): %v", err)
	}
	if v := d2.Int(); v != 99 {
		t.Fatalf("beta Int = %d", v)
	}
	if err := d2.Err(); err != nil {
		t.Fatalf("beta Err: %v", err)
	}
}

func TestDecStickyErrors(t *testing.T) {
	d := &Dec{name: "t", buf: []byte{1, 2}}
	_ = d.U64() // overruns
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrun err = %v", err)
	}
	// Subsequent reads stay zero, error stays latched.
	if v := d.I64(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("latched err = %v", err)
	}
}

func TestDecTrailingBytes(t *testing.T) {
	d := &Dec{name: "t", buf: []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF}}
	_ = d.U64()
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes err = %v", err)
	}
}

func TestDecF64sInto(t *testing.T) {
	e := &Enc{}
	e.F64s([]float64{1, 2, 3})
	d := &Dec{name: "t", buf: e.Payload()}
	dst := make([]float64, 3)
	d.F64sInto(dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("F64sInto = %v", dst)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	// Length mismatch fails.
	d2 := &Dec{name: "t", buf: e.Payload()}
	d2.F64sInto(make([]float64, 2))
	if err := d2.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched F64sInto err = %v", err)
	}
}

// TestDecInvalidSliceLength feeds element counts the payload cannot hold,
// most of them counts whose encoded size n*elemSize wraps past zero: each
// read must latch ErrCorrupt and yield the zero value, never panic in make or
// hand a loop an absurd count.
func TestDecInvalidSliceLength(t *testing.T) {
	cases := []struct {
		name string
		n    uint64
		read func(d *Dec) any
	}{
		{"F64s-2^40", 1 << 40, func(d *Dec) any { return d.F64s() }},
		{"F64s", 1 << 61, func(d *Dec) any { return d.F64s() }},
		{"Ints", 1 << 61, func(d *Dec) any { return d.Ints() }},
		{"I64s", 1 << 61, func(d *Dec) any { return d.I64s() }},
		{"I64s-wraps-to-8", 1<<61 + 1, func(d *Dec) any { return d.I64s() }},
		{"Str", math.MaxInt64, func(d *Dec) any { return d.Str() }},
		{"Bytes", math.MaxInt64, func(d *Dec) any { return d.Bytes() }},
		{"Count-1", math.MaxInt64, func(d *Dec) any { return d.Codec().Count(0, 1) }},
		{"Count-8", 1 << 61, func(d *Dec) any { return d.Codec().Count(0, 8) }},
		// 24 * 768,614,336,404,564,651 = 2^64 + 8 and
		// 48 * 384,307,168,202,282,326 = 2^64 + 16.
		{"Count-24", 768614336404564651, func(d *Dec) any { return d.Codec().Count(0, 24) }},
		{"Count-48", 384307168202282326, func(d *Dec) any { return d.Codec().Count(0, 48) }},
		{"negative", 1 << 63, func(d *Dec) any { return d.Codec().Count(0, 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := binary.LittleEndian.AppendUint64(nil, tc.n)
			payload = append(payload, make([]byte, 24)...)
			d := NewDec("t", payload)
			switch v := tc.read(d).(type) {
			case []float64:
				if v != nil {
					t.Fatalf("got %d values", len(v))
				}
			case []int:
				if v != nil {
					t.Fatalf("got %d values", len(v))
				}
			case []int64:
				if v != nil {
					t.Fatalf("got %d values", len(v))
				}
			case []byte:
				if v != nil {
					t.Fatalf("got %d bytes", len(v))
				}
			case string:
				if v != "" {
					t.Fatalf("got %d bytes", len(v))
				}
			case int:
				if v != 0 {
					t.Fatalf("count %d", v)
				}
			}
			if err := d.Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestEncMatchesReferenceAppender drives random sequences of every Enc
// primitive — empty slices, blocks straddling a chunk edge, one block over
// 1 MiB — and requires exactly the bytes of a per-primitive append encoder,
// and a section CRC from WriteTo equal to the checksum of those bytes.
func TestEncMatchesReferenceAppender(t *testing.T) {
	le := binary.LittleEndian
	rng := rand.New(rand.NewSource(1))
	floats := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for seq := 0; seq < 20; seq++ {
		e := &Enc{}
		var ref []byte
		steps := 200 + rng.Intn(400)
		big := rng.Intn(steps)
		for i := 0; i < steps; i++ {
			// Mostly short blocks; every so often one sized to cross the
			// current chunk's end, and once per sequence one over 1 MiB.
			n := rng.Intn(4)
			switch {
			case i == big:
				n = 1<<17 + rng.Intn(1000)
			case rng.Intn(8) == 0:
				n = rng.Intn(3000)
			}
			op := rng.Intn(13)
			if i == big {
				op = 8 + rng.Intn(5)
			}
			switch op {
			case 0:
				v := uint8(rng.Intn(256))
				e.U8(v)
				ref = append(ref, v)
			case 1:
				v := rng.Intn(2) == 1
				e.Bool(v)
				if v {
					ref = append(ref, 1)
				} else {
					ref = append(ref, 0)
				}
			case 2:
				v := rng.Uint32()
				e.U32(v)
				ref = le.AppendUint32(ref, v)
			case 3:
				v := rng.Uint64()
				e.U64(v)
				ref = le.AppendUint64(ref, v)
			case 4:
				v := int32(rng.Uint32())
				e.I32(v)
				ref = le.AppendUint32(ref, uint32(v))
			case 5:
				v := int64(rng.Uint64())
				e.I64(v)
				ref = le.AppendUint64(ref, uint64(v))
			case 6:
				v := int(rng.Uint64())
				e.Int(v)
				ref = le.AppendUint64(ref, uint64(v))
			case 7:
				v := math.Float64frombits(rng.Uint64())
				e.F64(v)
				ref = le.AppendUint64(ref, math.Float64bits(v))
			case 8:
				v := floats(n)
				e.F64s(v)
				ref = le.AppendUint64(ref, uint64(len(v)))
				for _, x := range v {
					ref = le.AppendUint64(ref, math.Float64bits(x))
				}
			case 9:
				v := make([]int64, n)
				for j := range v {
					v[j] = int64(rng.Uint64())
				}
				e.I64s(v)
				ref = le.AppendUint64(ref, uint64(len(v)))
				for _, x := range v {
					ref = le.AppendUint64(ref, uint64(x))
				}
			case 10:
				v := make([]int, n)
				for j := range v {
					v[j] = int(rng.Uint64())
				}
				e.Ints(v)
				ref = le.AppendUint64(ref, uint64(len(v)))
				for _, x := range v {
					ref = le.AppendUint64(ref, uint64(x))
				}
			case 11, 12:
				v := make([]byte, 8*n+rng.Intn(8))
				rng.Read(v)
				if op == 11 {
					e.Str(string(v))
				} else {
					e.Bytes(v)
				}
				ref = le.AppendUint64(ref, uint64(len(v)))
				ref = append(ref, v...)
			}
		}
		if got := e.Payload(); !bytes.Equal(got, ref) {
			t.Fatalf("sequence %d: %d encoded bytes differ from the %d reference bytes", seq, len(got), len(ref))
		}

		w := NewWriter(7)
		*w.Section("s") = *e
		var out bytes.Buffer
		if _, err := w.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		raw := out.Bytes()
		entry := len(Magic) + 4 + 8 + 4 + 2 + len("s")
		if n := le.Uint64(raw[entry:]); n != uint64(len(ref)) {
			t.Fatalf("sequence %d: table length %d, want %d", seq, n, len(ref))
		}
		if crc := le.Uint32(raw[entry+8:]); crc != crc32.ChecksumIEEE(ref) {
			t.Fatalf("sequence %d: table CRC %08x, want %08x", seq, crc, crc32.ChecksumIEEE(ref))
		}
		if !bytes.Equal(raw[entry+12:], ref) {
			t.Fatalf("sequence %d: written payload differs from the reference", seq)
		}
	}
}

// Table-driven corruption classes at the container layer: each mutation of a
// valid snapshot must be rejected with the right sentinel.
func TestReaderRejectsMutations(t *testing.T) {
	valid := buildSnapshot(t)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrCorrupt},
		{"truncated header", func(b []byte) []byte { return b[:5] }, ErrCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrCorrupt},
		{"future version", func(b []byte) []byte { b[8] = 0xEE; return b }, ErrVersion},
		{"truncated table", func(b []byte) []byte { return b[:len(Magic)+4+8+4+1] }, ErrCorrupt},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrCorrupt},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-3] ^= 0x10; return b }, ErrCorrupt},
		{"crc field flip", func(b []byte) []byte {
			// Flip a byte in the middle of the section table (CRC or length
			// field of a section entry).
			b[len(Magic)+4+8+4+2+len("alpha")+9] ^= 0x01
			return b
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), valid...))
			_, err := NewReader(bytes.NewReader(mutated))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestMissingSection(t *testing.T) {
	r, err := NewReader(bytes.NewReader(buildSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("gamma"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section err = %v", err)
	}
}
