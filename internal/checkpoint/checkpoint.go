// Package checkpoint implements the durable snapshot container: a
// versioned, CRC-guarded binary format into which every stateful component
// of a session serializes itself at a decision-epoch boundary, and from
// which a crashed run can be restored bit for bit.
//
// Layout (all integers little-endian):
//
//	magic       8 bytes  "HDRLCKPT"
//	version     uint32   format version (Version)
//	fingerprint uint64   hash of the canonical config encoding
//	nSections   uint32
//	section table, nSections entries:
//	    nameLen uint16, name bytes, payloadLen uint64, crc32 uint32 (IEEE)
//	payloads, concatenated in table order
//
// Every payload is independently checksummed, so corruption is localized to
// a named section in error messages. The container carries no pointers and
// no code — restoration rebuilds the object graph from the Config and then
// overwrites each component's state from its section.
//
// A section payload is written and read by one type, Codec: each stateful
// component has a single State(*Codec) walk naming its fields in stream
// order, and the Codec it is handed decides whether the walk encodes them
// (Writer.Section) or decodes them (Reader.Section, NewDec).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"hierdrl/internal/mat"
)

// Magic identifies a snapshot file.
const Magic = "HDRLCKPT"

// Version is the current snapshot format version. Readers reject any other
// version with ErrVersion. Version 11 stores each fact of the metrics section
// once: no overall latency histogram (it is the class histograms' sum) and no
// job count per series point (it is the point's index times the checkpoint
// interval); CHANGES.md records what each of versions 2 to 10 changed.
const Version uint32 = 11

// maxSectionLen bounds a single section payload (1 GiB) so a corrupt length
// field cannot drive a huge allocation before the CRC check runs.
const maxSectionLen = 1 << 30

// Sentinel errors. Restore failures wrap exactly one of these, so callers
// can classify with errors.Is.
var (
	// ErrCorrupt marks a truncated, malformed, or checksum-failing snapshot.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrConfigMismatch marks a snapshot whose configuration does not match
	// the restore target.
	ErrConfigMismatch = errors.New("checkpoint: config mismatch")
)

// Stateful is the opt-in interface for pluggable components (allocators,
// power managers, predictors, failure clocks, retry policies) that carry
// run-time state. State names every persisted field once, in stream order;
// the Codec decides whether the walk writes or reads them.
type Stateful interface {
	State(c *Codec)
}

// Stateless is the opt-in marker for pluggable components that carry no
// run-time state (their behavior is a pure function of construction
// parameters). A registered component must implement Stateful or Stateless
// to be checkpointable; anything implementing neither fails Checkpoint
// loudly rather than silently dropping state.
type Stateless interface {
	CheckpointStateless()
}

// ErrNotCheckpointable marks a pluggable component that implements neither
// Stateful nor Stateless: the snapshot cannot represent it, and writing one
// anyway would silently drop its state, so Checkpoint fails loudly instead.
var ErrNotCheckpointable = errors.New("checkpoint: component is neither Stateful nor Stateless")

// saveFailure carries an ErrNotCheckpointable out of an encoding walk (State
// cannot return errors) to the Catch at the top.
type saveFailure struct{ err error }

// Codec is one direction of a state walk over one section payload. The zero
// Codec encodes: it appends every field it is shown. NewDec returns one that
// decodes: it overwrites every field from the payload. A component therefore
// declares what it persists once, and the two directions cannot drift apart.
// Restore-only work (validation, timer re-scheduling, cache invalidation)
// sits behind Decoding().
//
// An encoded payload is a list of chunks rather than one growing slice, so a
// 15 MB section is never re-copied as it grows: chunks start at 4 KiB and
// double up to 1 MiB, and a block larger than the next chunk gets a chunk of
// its own. Every primitive reserves its whole encoding once and fills it in
// place. Encoding never fails: sections are checksummed at WriteTo time.
//
// Decode failures latch, wrapped around ErrCorrupt: after the first one
// every read yields the zero value and every Count is 0, so a walk runs to
// its end without acting on garbage and is checked once, by Err or End. A
// slice is read with one bounds check, into fresh storage (nil when empty).
type Codec struct {
	// chunks hold the encoded payload in order; the spare capacity of the
	// last one is where the next bytes go.
	chunks [][]byte

	// dec marks a decoding Codec: name labels its section in errors, buf is
	// the payload, off the read position and err the latched failure.
	dec  bool
	name string
	buf  []byte
	off  int
	err  error
}

// NewDec returns a Codec decoding a bare section payload; name labels it in
// error messages.
func NewDec(name string, payload []byte) *Codec {
	return &Codec{dec: true, name: name, buf: payload}
}

// Decoding reports whether the walk reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the latched decode failure; an encoding walk never fails.
func (c *Codec) Err() error { return c.err }

// End is Err plus the trailing-bytes check that closes a section: a decode
// that left payload bytes unread fails. Call it once per section.
func (c *Codec) End() error {
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("%w: section %q: %d trailing bytes", ErrCorrupt, c.name, len(c.buf)-c.off)
	}
	return c.err
}

// Fail latches a validation failure wrapping sentinel (ErrCorrupt or
// ErrConfigMismatch) unless an earlier failure already did. Decoding only.
func (c *Codec) Fail(sentinel error, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)
	}
}

func (c *Codec) fail(format string, args ...any) {
	c.Fail(ErrCorrupt, "section %q: "+format, append([]any{c.name}, args...)...)
}

const (
	minChunk = 4 << 10
	// maxChunkShift caps chunk doubling at minChunk<<8 = 1 MiB.
	maxChunkShift = 8
)

// grow reserves the next n encoded bytes and returns them for the caller to
// fill completely.
func (c *Codec) grow(n int) []byte {
	if k := len(c.chunks) - 1; k >= 0 {
		if b, l := c.chunks[k], len(c.chunks[k]); n <= cap(b)-l {
			c.chunks[k] = b[:l+n]
			return b[l : l+n]
		}
	}
	b := make([]byte, n, max(n, minChunk<<min(len(c.chunks), maxChunkShift)))
	c.chunks = append(c.chunks, b)
	return b
}

// take consumes the next n payload bytes, or latches a truncation failure
// and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.fail("truncated: need %d bytes at offset %d of %d", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// set stores a decoded value; an encoding walk leaves the field untouched.
func set[T any](c *Codec, p *T, v T) {
	if c.dec {
		*p = v
	}
}

// u64 walks one little-endian word: encoding writes v, decoding returns the
// next word (0 once a read has failed).
func (c *Codec) u64(v uint64) uint64 {
	if !c.dec {
		binary.LittleEndian.PutUint64(c.grow(8), v)
		return v
	}
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// One method per primitive, each taking the field's address. Integers are
// little-endian, an int is stored as an int64, and a float64 by its exact bit
// pattern (NaN payloads and signed zeros round-trip).
func (c *Codec) I64(p *int64)   { set(c, p, int64(c.u64(uint64(*p)))) }
func (c *Codec) Int(p *int)     { set(c, p, int(c.u64(uint64(*p)))) }
func (c *Codec) F64(p *float64) { set(c, p, math.Float64frombits(c.u64(math.Float64bits(*p)))) }

// I32 walks a little-endian int32.
func (c *Codec) I32(p *int32) {
	if !c.dec {
		binary.LittleEndian.PutUint32(c.grow(4), uint32(*p))
	} else if b := c.take(4); b != nil {
		*p = int32(binary.LittleEndian.Uint32(b))
	} else {
		*p = 0
	}
}

// Bool walks a boolean as one byte, 0 or 1.
func (c *Codec) Bool(p *bool) {
	if !c.dec {
		var v byte
		if *p {
			v = 1
		}
		c.grow(1)[0] = v
		return
	}
	b := c.take(1)
	if b != nil && b[0] > 1 {
		c.fail("invalid boolean")
	}
	// A read that did not fail returned its byte.
	*p = c.err == nil && b[0] == 1
}

// Count walks an element count: n is written, or read and bounded by the
// remaining payload (elemSize is a lower bound on one encoded element), so a
// corrupt count fails instead of driving an absurd allocation or loop. The
// bound divides rather than multiplies: n*elemSize can wrap past zero. The
// caller loops over the returned value in both directions.
func (c *Codec) Count(n, elemSize int) int {
	c.Int(&n)
	if c.dec && (n < 0 || elemSize > 0 && n > (len(c.buf)-c.off)/elemSize) {
		c.fail("invalid slice length %d", n)
		return 0
	}
	return n
}

// F64s walks a length-prefixed []float64.
func (c *Codec) F64s(p *[]float64) {
	if !c.dec {
		c.F64sFixed(*p)
		return
	}
	var v []float64
	if n := c.Count(0, 8); n > 0 {
		b := c.take(8 * n)
		v = make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	*p = v
}

// F64sFixed walks a length-prefixed []float64 whose length is construction
// config: decoding fills v in place and fails on any other length.
func (c *Codec) F64sFixed(v []float64) {
	if !c.dec {
		b := c.grow(8 + 8*len(v))
		binary.LittleEndian.PutUint64(b, uint64(len(v)))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8+8*i:], math.Float64bits(x))
		}
		return
	}
	n := len(v)
	if c.Int(&n); c.err == nil && n != len(v) {
		c.fail("float64 slice length %d, want %d", n, len(v))
	}
	if b := c.take(8 * n); b != nil {
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Ints walks a length-prefixed []int.
func (c *Codec) Ints(p *[]int) { set(c, p, ints(c, *p)) }

// I64s walks a length-prefixed []int64.
func (c *Codec) I64s(p *[]int64) { set(c, p, ints(c, *p)) }

// ints walks a length-prefixed slice of 8-byte integers: encoding writes v,
// decoding returns the slice it reads. The slice goes in and out by value: a
// generic taking the field's address would move the caller's variable to
// the heap.
func ints[T int | int64](c *Codec, v []T) []T {
	if !c.dec {
		b := c.grow(8 + 8*len(v))
		binary.LittleEndian.PutUint64(b, uint64(len(v)))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8+8*i:], uint64(x))
		}
		return v
	}
	if n := c.Count(0, 8); n > 0 {
		b := c.take(8 * n)
		v = make([]T, n)
		for i := range v {
			v[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return v
	}
	return nil
}

// F64sDelta walks cur as a delta against prev, a slice of the same
// construction-config length walked just before it. Each 64-word window is a
// bitmask of the words whose bit patterns differ from prev's (so -0/+0 and
// NaN payloads count as changes) followed by those words; decoding copies
// prev's window into cur and patches it. No length is stored.
func (c *Codec) F64sDelta(prev, cur []float64) {
	if len(prev) != len(cur) {
		panic(fmt.Sprintf("checkpoint: F64sDelta over widths %d and %d", len(prev), len(cur)))
	}
	for lo := 0; lo < len(cur); lo += 64 {
		hi := min(lo+64, len(cur))
		c.deltaWindow(prev[lo:hi], cur[lo:hi])
	}
}

// deltaWindow walks one F64sDelta window of at most 64 words. Decoding fails
// before cur is written on a mask bit past the window's width, a mask naming
// more words than the payload holds, or a named word whose bits equal prev's:
// the encoder never names one, so every accepted delta has one encoding.
func (c *Codec) deltaWindow(prev, cur []float64) {
	if !c.dec {
		var mask uint64
		for i, x := range cur {
			if math.Float64bits(x) != math.Float64bits(prev[i]) {
				mask |= 1 << i
			}
		}
		b := c.grow(8 + 8*bits.OnesCount64(mask))
		binary.LittleEndian.PutUint64(b, mask)
		for m, o := mask, 8; m != 0; m, o = m&(m-1), o+8 {
			binary.LittleEndian.PutUint64(b[o:], math.Float64bits(cur[bits.TrailingZeros64(m)]))
		}
		return
	}
	b := c.take(8)
	if b == nil {
		return
	}
	mask := binary.LittleEndian.Uint64(b)
	if mask>>len(cur) != 0 {
		c.fail("delta mask %#x has bits past width %d", mask, len(cur))
		return
	}
	if b = c.take(8 * bits.OnesCount64(mask)); b == nil {
		return
	}
	for m, o := mask, 0; m != 0; m, o = m&(m-1), o+8 {
		if i := bits.TrailingZeros64(m); binary.LittleEndian.Uint64(b[o:]) == math.Float64bits(prev[i]) {
			c.fail("delta names unchanged word %d", i)
			return
		}
	}
	copy(cur, prev)
	for m, o := mask, 0; m != 0; m, o = m&(m-1), o+8 {
		cur[bits.TrailingZeros64(m)] = math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(p *string) {
	if b, ok := text(c, *p); ok {
		*p = string(b)
	}
}

// Bytes walks a length-prefixed byte slice; decoding copies it out of the
// payload.
func (c *Codec) Bytes(p *[]byte) {
	if b, ok := text(c, *p); ok {
		*p = append([]byte(nil), b...)
	}
}

// text walks a length-prefixed string or byte slice, one generic for both so
// that encoding a string converts (and allocates) nothing. Decoding returns
// the payload's bytes (none once failed) and true.
func text[T string | []byte](c *Codec, v T) ([]byte, bool) {
	if !c.dec {
		b := c.grow(8 + len(v))
		binary.LittleEndian.PutUint64(b, uint64(len(v)))
		copy(b[8:], v)
		return nil, false
	}
	return c.take(c.Count(0, 1)), true
}

// RNG walks a generator's two PCG state words, restoring r in place. It is
// the one place RNG chains are written, so every component's state I/O
// writes them identically. Every pair of words is a valid state.
func (c *Codec) RNG(r *mat.RNG) {
	hi, lo := r.State()
	hi, lo = c.u64(hi), c.u64(lo)
	if c.dec && c.err == nil {
		r.Restore(hi, lo)
	}
}

// Component walks a pluggable component: a presence flag and, for a
// Stateful, its own walk. Encoding a component that implements neither
// interface aborts the snapshot by panicking with a failure that Catch
// converts back into an ErrNotCheckpointable; decoding requires the freshly
// constructed v to have the checkpointability of the one that was saved.
func (c *Codec) Component(v any) {
	s, stateful := v.(Stateful)
	if _, stateless := v.(Stateless); !c.dec && !stateful && !stateless {
		panic(saveFailure{fmt.Errorf("%w: %T", ErrNotCheckpointable, v)})
	}
	has := stateful
	c.Bool(&has)
	switch {
	case c.err != nil:
	case has && !stateful:
		c.fail("stateful snapshot for stateless component %T", v)
	case !has && stateful:
		c.fail("stateless snapshot for stateful component %T", v)
	case has:
		s.State(c)
	}
}

// Catch converts a Codec.Component abort into an error return. Use as
// `defer checkpoint.Catch(&err)` in the function driving a snapshot write.
// Unrelated panics propagate.
func Catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(saveFailure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}

// Payload returns a copy of the bytes encoded so far, in one slice.
func (c *Codec) Payload() []byte { return bytes.Join(c.chunks, nil) }

// Writer assembles a snapshot: named sections appended in order, flushed
// with header, table, and per-section CRCs by WriteTo.
type Writer struct {
	fingerprint uint64
	names       []string
	sections    []*Codec
}

// NewWriter starts a snapshot carrying the given config fingerprint.
func NewWriter(fingerprint uint64) *Writer {
	return &Writer{fingerprint: fingerprint}
}

// Section starts a new named section and returns its encoding Codec. Names
// must be unique within a snapshot.
func (w *Writer) Section(name string) *Codec {
	if slices.Contains(w.names, name) {
		panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
	}
	c := &Codec{}
	w.names = append(w.names, name)
	w.sections = append(w.sections, c)
	return c
}

// WriteTo serializes the assembled snapshot.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.fingerprint)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.sections)))
	for i, c := range w.sections {
		name := w.names[i]
		var crc uint32
		size := 0
		for _, b := range c.chunks {
			crc = crc32.Update(crc, crc32.IEEETable, b)
			size += len(b)
		}
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
		hdr = append(hdr, name...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(size))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc)
	}
	n, err := out.Write(hdr)
	written := int64(n)
	if err != nil {
		return written, fmt.Errorf("checkpoint: write header: %w", err)
	}
	for i, c := range w.sections {
		for _, b := range c.chunks {
			n, err := out.Write(b)
			written += int64(n)
			if err != nil {
				return written, fmt.Errorf("checkpoint: write section %q: %w", w.names[i], err)
			}
		}
	}
	return written, nil
}

// Reader parses and validates a snapshot: magic, version, section table,
// and every section CRC are checked up front, so decode code downstream
// only ever sees structurally intact payloads.
type Reader struct {
	fingerprint uint64
	order       []string
	sections    map[string][]byte
}

// readChunk is how far readFull sizes its buffer ahead of the bytes that have
// actually arrived when the reader cannot say how many are left.
const readChunk = 1 << 20

// readFull reads exactly n bytes. n may be a section length taken from the
// header before one byte of that section has been read, so the buffer is
// never sized by n alone: an in-memory reader is asked what it can still
// deliver (and gets one exact allocation), any other reader is followed in
// readChunk steps. A table claiming gigabytes over a 100-byte input fails
// with ErrCorrupt after allocating O(input).
func readFull(r io.Reader, n int, what string) ([]byte, error) {
	ahead := readChunk
	if l, ok := r.(interface{ Len() int }); ok {
		if n > l.Len() {
			return nil, fmt.Errorf("%w: short read in %s: %d bytes claimed, %d left", ErrCorrupt, what, n, l.Len())
		}
		ahead = n
	}
	b := make([]byte, 0, min(n, ahead))
	for len(b) < n {
		step := min(n-len(b), ahead)
		b = slices.Grow(b, step)
		m, err := io.ReadFull(r, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		if err != nil {
			return nil, fmt.Errorf("%w: short read in %s: %v", ErrCorrupt, what, err)
		}
	}
	return b, nil
}

// NewReader parses a snapshot from r.
func NewReader(r io.Reader) (*Reader, error) {
	fixed, err := readFull(r, len(Magic)+4+8+4, "header")
	if err != nil {
		return nil, err
	}
	if string(fixed[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, fixed[:len(Magic)])
	}
	off := len(Magic)
	if v := binary.LittleEndian.Uint32(fixed[off:]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, reader supports %d", ErrVersion, v, Version)
	}
	off += 4
	fp := binary.LittleEndian.Uint64(fixed[off:])
	off += 8
	nSections := binary.LittleEndian.Uint32(fixed[off:])
	if nSections > 4096 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSections)
	}

	type entry struct {
		name string
		n    uint64
		crc  uint32
	}
	entries := make([]entry, nSections)
	for i := range entries {
		lb, err := readFull(r, 2, "section table")
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(lb))
		nb, err := readFull(r, nameLen+8+4, "section table")
		if err != nil {
			return nil, err
		}
		entries[i] = entry{
			name: string(nb[:nameLen]),
			n:    binary.LittleEndian.Uint64(nb[nameLen:]),
			crc:  binary.LittleEndian.Uint32(nb[nameLen+8:]),
		}
		if entries[i].n > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q length %d exceeds limit", ErrCorrupt, entries[i].name, entries[i].n)
		}
	}
	rd := &Reader{fingerprint: fp, sections: make(map[string][]byte, nSections)}
	for _, e := range entries {
		payload, err := readFull(r, int(e.n), "section "+e.name)
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(payload); got != e.crc {
			return nil, fmt.Errorf("%w: section %q CRC mismatch (got %08x, want %08x)",
				ErrCorrupt, e.name, got, e.crc)
		}
		if _, dup := rd.sections[e.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, e.name)
		}
		rd.order = append(rd.order, e.name)
		rd.sections[e.name] = payload
	}
	return rd, nil
}

// Fingerprint returns the config fingerprint stored in the header.
func (r *Reader) Fingerprint() uint64 { return r.fingerprint }

// Sections returns the section names in file order.
func (r *Reader) Sections() []string { return r.order }

// Section returns a Codec decoding the named payload, or an
// ErrCorrupt-wrapped error when the snapshot lacks it.
func (r *Reader) Section(name string) (*Codec, error) {
	payload, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return NewDec(name, payload), nil
}
