package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hierdrl/internal/mat"
)

// sample holds one field of every value primitive; its walk is the one the
// container tests write and read back.
type sample struct {
	b    bool
	i32  int32
	i64  int64
	n    int
	f, z float64
	fs   []float64
	is   []int64
	bs   []byte
}

func (v *sample) State(c *Codec) {
	c.Bool(&v.b)
	c.I32(&v.i32)
	c.I64(&v.i64)
	c.Int(&v.n)
	c.F64(&v.f)
	c.F64(&v.z)
	c.F64s(&v.fs)
	c.I64s(&v.is)
	c.Bytes(&v.bs)
}

func testSample() sample {
	return sample{
		b: true, i32: -123456, i64: -42, n: 7, f: math.Pi, z: math.Copysign(0, -1),
		fs: []float64{1.5, -2.5, math.Inf(1)},
		is: []int64{9, -9}, bs: []byte("hello, snapshot"),
	}
}

func buildSnapshot(t *testing.T) []byte {
	t.Helper()
	w := NewWriter(0xDEADBEEFCAFE)
	v := testSample()
	v.State(w.Section("alpha"))
	n := 99
	w.Section("beta").Int(&n)
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
	if got := r.order; len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v", got)
	}

	d, err := r.Section("alpha")
	if err != nil {
		t.Fatalf("Section(alpha): %v", err)
	}
	if !d.Decoding() {
		t.Fatal("a Reader section encodes")
	}
	var got sample
	got.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("End after full decode: %v", err)
	}
	if want := testSample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if math.Float64bits(got.z) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero lost: %v", got.z)
	}

	d2, err := r.Section("beta")
	if err != nil {
		t.Fatalf("Section(beta): %v", err)
	}
	var n int
	if d2.Int(&n); n != 99 {
		t.Fatalf("beta Int = %d", n)
	}
	if err := d2.End(); err != nil {
		t.Fatalf("beta End: %v", err)
	}
}

func TestDecStickyErrors(t *testing.T) {
	d := NewDec("t", []byte{1, 2})
	v := int64(5)
	d.I64(&v) // overruns
	if err := d.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overrun err = %v", err)
	}
	if v != 0 {
		t.Fatalf("failed read = %d, want 0", v)
	}
	// Subsequent reads yield the zero value, counts are 0, the error stays
	// latched.
	v, b := 5, true
	d.I64(&v)
	d.Bool(&b)
	if v != 0 || b || d.Count(3, 0) != 0 {
		t.Fatalf("reads after error = %d, %v", v, b)
	}
	if err := d.End(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("latched err = %v", err)
	}
}

func TestDecTrailingBytes(t *testing.T) {
	d := NewDec("t", []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF})
	var v int64
	d.I64(&v)
	if err := d.Err(); err != nil || v != 1 {
		t.Fatalf("read = %d, err = %v", v, err)
	}
	if err := d.End(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes err = %v", err)
	}
}

func TestDecF64sInto(t *testing.T) {
	var e Codec
	v := []float64{1, 2, 3}
	e.F64s(&v)
	d := NewDec("t", e.Payload())
	dst := make([]float64, 3)
	d.F64sFixed(dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("F64sFixed = %v", dst)
	}
	if err := d.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	// Length mismatch fails.
	d2 := NewDec("t", e.Payload())
	d2.F64sFixed(make([]float64, 2))
	if err := d2.End(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched F64sFixed err = %v", err)
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
		read func(d *Codec) any
	}{
		{"F64s-2^40", 1 << 40, func(d *Codec) any { var v []float64; d.F64s(&v); return v }},
		{"F64s", 1 << 61, func(d *Codec) any { var v []float64; d.F64s(&v); return v }},
		{"I64s", 1 << 61, func(d *Codec) any { var v []int64; d.I64s(&v); return v }},
		{"I64s-wraps-to-8", 1<<61 + 1, func(d *Codec) any { var v []int64; d.I64s(&v); return v }},
		{"Bytes", math.MaxInt64, func(d *Codec) any { v := []byte{1}; d.Bytes(&v); return v }},
		{"Count-1", math.MaxInt64, func(d *Codec) any { return d.Count(0, 1) }},
		{"Count-8", 1 << 61, func(d *Codec) any { return d.Count(0, 8) }},
		// 24 * 768,614,336,404,564,651 = 2^64 + 8 and
		// 48 * 384,307,168,202,282,326 = 2^64 + 16.
		{"Count-24", 768614336404564651, func(d *Codec) any { return d.Count(0, 24) }},
		{"Count-48", 384307168202282326, func(d *Codec) any { return d.Count(0, 48) }},
		{"negative", 1 << 63, func(d *Codec) any { return d.Count(0, 8) }},
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
			case []int64:
				if v != nil {
					t.Fatalf("got %d values", len(v))
				}
			case []byte:
				if v != nil {
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

// TestEncMatchesReferenceAppender drives random sequences of every encoding
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
	words := func(ref []byte, v []uint64) []byte {
		ref = le.AppendUint64(ref, uint64(len(v)))
		for _, x := range v {
			ref = le.AppendUint64(ref, x)
		}
		return ref
	}
	for seq := 0; seq < 20; seq++ {
		e := &Codec{}
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
			op := rng.Intn(10)
			if i == big {
				op = 6 + rng.Intn(4)
			}
			switch op {
			case 0:
				v := rng.Intn(2) == 1
				e.Bool(&v)
				if v {
					ref = append(ref, 1)
				} else {
					ref = append(ref, 0)
				}
			case 1:
				v := int32(rng.Uint32())
				e.I32(&v)
				ref = le.AppendUint32(ref, uint32(v))
			case 2:
				v := int64(rng.Uint64())
				e.I64(&v)
				ref = le.AppendUint64(ref, uint64(v))
			case 3:
				v := int(rng.Uint64())
				e.Int(&v)
				ref = le.AppendUint64(ref, uint64(v))
			case 4:
				v := int(rng.Uint64())
				if got := e.Count(v, 8); got != v {
					t.Fatalf("encoding Count returned %d, want %d", got, v)
				}
				ref = le.AppendUint64(ref, uint64(v))
			case 5:
				v := math.Float64frombits(rng.Uint64())
				e.F64(&v)
				ref = le.AppendUint64(ref, math.Float64bits(v))
			case 6, 7:
				v := floats(n)
				if op == 6 {
					e.F64s(&v)
				} else {
					e.F64sFixed(v)
				}
				u := make([]uint64, n)
				for j, x := range v {
					u[j] = math.Float64bits(x)
				}
				ref = words(ref, u)
			case 8:
				u := make([]uint64, n)
				v := make([]int64, n)
				for j := range u {
					u[j] = rng.Uint64()
					v[j] = int64(u[j])
				}
				e.I64s(&v)
				ref = words(ref, u)
			case 9:
				v := make([]byte, 8*n+rng.Intn(8))
				rng.Read(v)
				e.Bytes(&v)
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

// record holds one field of every primitive, walked in the fixed order
// FuzzCodecDecode decodes arbitrary bytes through.
type record struct {
	rng       *mat.RNG
	sample    sample
	counted   []int64
	fixed     [5]float64
	delta     [5]float64
	stateful  *record
	stateless stateless
}

type stateless struct{}

func (stateless) CheckpointStateless() {}

func newRecord(nested bool) *record {
	r := &record{rng: mat.NewRNG(1)}
	if nested {
		r.stateful = newRecord(false)
	}
	return r
}

func (r *record) State(c *Codec) {
	c.RNG(r.rng)
	r.sample.State(c)
	n := c.Count(len(r.counted), 8)
	if c.Decoding() {
		r.counted = make([]int64, n)
	}
	for i := range r.counted {
		c.I64(&r.counted[i])
	}
	c.F64sFixed(r.fixed[:])
	c.F64sDelta(r.fixed[:], r.delta[:])
	if r.stateful != nil {
		c.Component(r.stateful)
		c.Component(r.stateless)
	}
}

// FuzzCodecDecode decodes arbitrary bytes through one walk that touches every
// primitive, a nested Stateful and a Stateless component included. The decode
// either fails with an ErrCorrupt-wrapped error or succeeds, and then
// re-encoding what it read gives exactly the bytes it consumed; it never
// panics. Every pair of RNG words is a state, so a generator's words are
// taken as they are: the seed with both set to 1<<62 restores at once.
func FuzzCodecDecode(f *testing.F) {
	r := newRecord(true)
	r.rng.Float64()
	r.sample = testSample()
	r.counted = []int64{-1, 1 << 40}
	r.fixed = [5]float64{1, 2, math.NaN(), 4, 5}
	r.delta = [5]float64{1, 0, math.NaN(), 4, math.Inf(-1)}
	r.stateful.rng.Intn(9)
	var e Codec
	r.State(&e)
	good := e.Payload()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	huge := slices.Clone(good)
	binary.LittleEndian.PutUint64(huge, 1<<62)
	binary.LittleEndian.PutUint64(huge[8:], 1<<62)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		got := newRecord(true)
		d := NewDec("fuzz", data)
		got.State(d)
		if err := d.Err(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failed without ErrCorrupt: %v", err)
			}
			return
		}
		var again Codec
		got.State(&again)
		if !bytes.Equal(again.Payload(), data[:d.off]) {
			t.Fatalf("re-encoding of a clean %d-byte decode differs from the bytes read", d.off)
		}
	})
}
