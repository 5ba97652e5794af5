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
// version with ErrVersion. Version 2 added the extended fault classes'
// per-server state (effective speed, degrade and drain bookkeeping) and the
// session migration/domain tallies. Version 3 extended the metrics section
// with the telemetry sketch state (sketch-only flag, wait sum, t-digests).
// Version 4 stores each DRL observation once: a replay transition no longer
// carries its successor state, a state is one fixed-length block, and the
// replay slot generations and the target-sync counter (read by nothing) left.
// Version 5 stores each cluster fact once: the aggregates derived from the
// servers (and the metrics copies of the completion count and the session's
// fault tallies) are rebuilt on restore instead of stored, and the engine's
// shard-count word, the always-empty merger section and the agent's unread
// pending-decision instant are gone. Version 6 stores every replay state after
// the first as a delta against the previous buffer slot (F64sDelta).
// Version 7 moves the failure-domain outage count from the session section to
// the end of the cluster section and drops the metrics section's per-job
// waits (their sum is kept).
const Version uint32 = 7

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

// Codec is one direction of a state walk: built over an Enc it appends every
// field it is shown, built over a Dec it overwrites them from the payload.
// A component therefore declares what it persists once, and the two
// directions cannot drift apart. Restore-only work (validation, timer
// re-scheduling, cache invalidation) sits behind Decoding(). Decode failures
// latch in the Dec: after the first one every read yields the zero value and
// every Count is 0, so a walk runs to its end without acting on garbage.
type Codec struct {
	e *Enc
	d *Dec
}

// Codec returns the encoding direction over e.
func (e *Enc) Codec() *Codec { return &Codec{e: e} }

// Codec returns the decoding direction over d.
func (d *Dec) Codec() *Codec { return &Codec{d: d} }

// Save runs s's walk in the encoding direction.
func Save(e *Enc, s Stateful) { s.State(e.Codec()) }

// Restore runs s's walk in the decoding direction and returns its first
// failure. A section payload routinely continues past any one component, so
// the end-of-payload check stays with the section's driver (Dec.Err).
func Restore(d *Dec, s Stateful) error {
	s.State(d.Codec())
	return d.err
}

// Decoding reports whether the walk reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the latched decode failure; an encoding walk never fails.
func (c *Codec) Err() error {
	if c.d == nil {
		return nil
	}
	return c.d.err
}

// End is Err plus the trailing-bytes check that closes a section.
func (c *Codec) End() error {
	if c.d == nil {
		return nil
	}
	return c.d.Err()
}

// Fail latches a validation failure wrapping sentinel (ErrCorrupt or
// ErrConfigMismatch) unless an earlier failure already did. Decoding only.
func (c *Codec) Fail(sentinel error, format string, args ...any) {
	if c.d.err == nil {
		c.d.err = fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)
	}
}

func walk[T any](c *Codec, p *T, enc func(*Enc, T), dec func(*Dec) T) {
	if c.d != nil {
		*p = dec(c.d)
	} else {
		enc(c.e, *p)
	}
}

// One method per primitive, each taking the field's address. Slices decode
// into fresh storage (nil when empty).
func (c *Codec) Bool(p *bool)      { walk(c, p, (*Enc).Bool, (*Dec).Bool) }
func (c *Codec) Int(p *int)        { walk(c, p, (*Enc).Int, (*Dec).Int) }
func (c *Codec) I32(p *int32)      { walk(c, p, (*Enc).I32, (*Dec).I32) }
func (c *Codec) I64(p *int64)      { walk(c, p, (*Enc).I64, (*Dec).I64) }
func (c *Codec) U64(p *uint64)     { walk(c, p, (*Enc).U64, (*Dec).U64) }
func (c *Codec) F64(p *float64)    { walk(c, p, (*Enc).F64, (*Dec).F64) }
func (c *Codec) Str(p *string)     { walk(c, p, (*Enc).Str, (*Dec).Str) }
func (c *Codec) F64s(p *[]float64) { walk(c, p, (*Enc).F64s, (*Dec).F64s) }
func (c *Codec) Ints(p *[]int)     { walk(c, p, (*Enc).Ints, (*Dec).Ints) }
func (c *Codec) I64s(p *[]int64)   { walk(c, p, (*Enc).I64s, (*Dec).I64s) }

// F64sFixed walks a length-prefixed []float64 whose length is construction
// config: decoding fills v in place and fails on any other length.
func (c *Codec) F64sFixed(v []float64) {
	if c.d != nil {
		c.d.F64sInto(v)
	} else {
		c.e.F64s(v)
	}
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
		if c.d != nil {
			c.d.deltaWindow(prev[lo:hi], cur[lo:hi])
		} else {
			c.e.deltaWindow(prev[lo:hi], cur[lo:hi])
		}
	}
}

// Count walks an element count: n is written, or read and bounded by the
// remaining payload (elemSize is a lower bound on one encoded element), so a
// corrupt count fails instead of driving an absurd allocation or loop. The
// caller loops over the returned value in both directions.
func (c *Codec) Count(n, elemSize int) int {
	if c.d != nil {
		return c.d.SliceLen(elemSize)
	}
	c.e.Int(n)
	return n
}

// RNG walks a generator's (seed, draws) state, rewinding r in place. It is
// the one place RNG chains are written, so every component's state I/O
// writes them identically.
func (c *Codec) RNG(r *mat.RNG) {
	seed, draws := r.State()
	c.I64(&seed)
	c.I64(&draws)
	if c.d == nil || c.d.err != nil {
		return
	}
	if draws < 0 {
		c.d.fail("negative RNG draw count %d", draws)
		return
	}
	r.Restore(seed, draws)
}

// Component walks a pluggable component: a presence flag and, for a
// Stateful, its own walk. Encoding a component that implements neither
// interface aborts the snapshot by panicking with a failure that Catch
// converts back into an ErrNotCheckpointable; decoding requires the freshly
// constructed v to have the checkpointability of the one that was saved.
func (c *Codec) Component(v any) {
	s, stateful := v.(Stateful)
	if _, stateless := v.(Stateless); c.d == nil && !stateful && !stateless {
		panic(saveFailure{fmt.Errorf("%w: %T", ErrNotCheckpointable, v)})
	}
	has := stateful
	c.Bool(&has)
	switch {
	case c.Err() != nil:
	case has && !stateful:
		c.d.fail("stateful snapshot for stateless component %T", v)
	case !has && stateful:
		c.d.fail("stateless snapshot for stateful component %T", v)
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

// Enc appends primitive values to an in-memory section payload. It never
// fails: sections are buffered and checksummed at WriteTo time.
//
// The payload is a list of chunks rather than one growing slice, so a 15 MB
// section is never re-copied as it grows: chunks start at 4 KiB and double
// up to 1 MiB, and a block larger than the next chunk gets a chunk of its
// own. Every primitive reserves its whole encoding once and fills it in
// place.
type Enc struct {
	// chunks hold the payload in order; the spare capacity of the last one
	// is where the next bytes go.
	chunks [][]byte
}

const (
	minChunk = 4 << 10
	// maxChunkShift caps chunk doubling at minChunk<<8 = 1 MiB.
	maxChunkShift = 8
)

// grow reserves the next n payload bytes and returns them for the caller to
// fill completely.
func (e *Enc) grow(n int) []byte {
	if k := len(e.chunks) - 1; k >= 0 {
		if c, l := e.chunks[k], len(e.chunks[k]); n <= cap(c)-l {
			e.chunks[k] = c[:l+n]
			return c[l : l+n]
		}
	}
	c := make([]byte, n, max(n, minChunk<<min(len(e.chunks), maxChunkShift)))
	e.chunks = append(e.chunks, c)
	return c
}

// size returns the number of payload bytes encoded so far.
func (e *Enc) size() int {
	n := 0
	for _, c := range e.chunks {
		n += len(c)
	}
	return n
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.grow(1)[0] = v }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { binary.LittleEndian.PutUint32(e.grow(4), v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { binary.LittleEndian.PutUint64(e.grow(8), v) }

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by exact bit pattern (NaN payloads and signed
// zeros round-trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// block reserves a length prefix holding n followed by n words, and returns
// the words' bytes.
func (e *Enc) block(n int) []byte {
	b := e.grow(8 + 8*n)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b[8:]
}

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(v []float64) {
	b := e.block(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	b := e.block(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// Ints appends a length-prefixed []int.
func (e *Enc) Ints(v []int) {
	b := e.block(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// deltaWindow appends one F64sDelta window of at most 64 words: the mask of
// the words of cur that differ bitwise from prev, then those words.
func (e *Enc) deltaWindow(prev, cur []float64) {
	var mask uint64
	for i, x := range cur {
		if math.Float64bits(x) != math.Float64bits(prev[i]) {
			mask |= 1 << i
		}
	}
	b := e.grow(8 + 8*bits.OnesCount64(mask))
	binary.LittleEndian.PutUint64(b, mask)
	for m, o := mask, 8; m != 0; m, o = m&(m-1), o+8 {
		binary.LittleEndian.PutUint64(b[o:], math.Float64bits(cur[bits.TrailingZeros64(m)]))
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(v string) { putBytes(e, v) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(v []byte) { putBytes(e, v) }

func putBytes[T string | []byte](e *Enc, v T) {
	b := e.grow(8 + len(v))
	binary.LittleEndian.PutUint64(b, uint64(len(v)))
	copy(b[8:], v)
}

// Payload returns a copy of the bytes encoded so far, in one slice.
func (e *Enc) Payload() []byte { return bytes.Join(e.chunks, nil) }

// Dec reads primitive values from a section payload. Errors are sticky:
// after the first failure every read returns the zero value, and Err
// reports the latched error (wrapped around ErrCorrupt). This lets restore
// code decode a whole struct linearly and check once.
type Dec struct {
	name string
	buf  []byte
	off  int
	err  error
}

// NewDec returns a decoder over a bare section payload; name labels it in
// error messages.
func NewDec(name string, payload []byte) *Dec { return &Dec{name: name, buf: payload} }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: section %q: %s", ErrCorrupt, d.name, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Err returns the latched decode error, or a trailing-garbage error when
// the payload was not fully consumed. Call once after decoding a section.
func (d *Dec) Err() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: section %q: %d trailing bytes", ErrCorrupt, d.name, len(d.buf)-d.off)
	}
	return nil
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean")
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 by exact bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// SliceLen decodes an element count and validates it against the remaining
// payload (elemSize is a lower bound on the encoded size per element), so a
// corrupt length fails instead of driving an absurd allocation or loop. The
// bound divides rather than multiplies: n*elemSize can wrap past zero.
func (d *Dec) SliceLen(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > (len(d.buf)-d.off)/elemSize {
		d.fail("invalid slice length %d", n)
		return 0
	}
	return n
}

// words reads n little-endian 8-byte words in one bounds check and returns
// them converted (nil when n is 0 or the read fails).
func words[T float64 | int64 | int](d *Dec, n int, conv func(uint64) T) []T {
	b := d.take(8 * n)
	if n == 0 || b == nil {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = conv(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// F64s reads a length-prefixed []float64.
func (d *Dec) F64s() []float64 { return words(d, d.SliceLen(8), math.Float64frombits) }

// F64sInto reads a length-prefixed []float64 whose length must equal
// len(dst), decoding in place.
func (d *Dec) F64sInto(dst []float64) {
	n := d.Int()
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail("float64 slice length %d, want %d", n, len(dst))
		return
	}
	b := d.take(8 * n)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// deltaWindow decodes one F64sDelta window into dst: prev's words, patched
// with the words the mask names. A mask bit past the window's width or a mask
// naming more words than the payload holds fails before dst is written.
func (d *Dec) deltaWindow(prev, dst []float64) {
	b := d.take(8)
	if b == nil {
		return
	}
	mask := binary.LittleEndian.Uint64(b)
	if mask>>len(dst) != 0 {
		d.fail("delta mask %#x has bits past width %d", mask, len(dst))
		return
	}
	if b = d.take(8 * bits.OnesCount64(mask)); b == nil {
		return
	}
	copy(dst, prev)
	for m, o := mask, 0; m != 0; m, o = m&(m-1), o+8 {
		dst[bits.TrailingZeros64(m)] = math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))
	}
}

// I64s reads a length-prefixed []int64.
func (d *Dec) I64s() []int64 {
	return words(d, d.SliceLen(8), func(u uint64) int64 { return int64(u) })
}

// Ints reads a length-prefixed []int.
func (d *Dec) Ints() []int {
	return words(d, d.SliceLen(8), func(u uint64) int { return int(u) })
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.SliceLen(1)
	if n == 0 {
		return ""
	}
	return string(d.take(n))
}

// Bytes reads a length-prefixed byte slice (copied out of the payload).
func (d *Dec) Bytes() []byte {
	n := d.SliceLen(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// Writer assembles a snapshot: named sections appended in order, flushed
// with header, table, and per-section CRCs by WriteTo.
type Writer struct {
	fingerprint uint64
	names       []string
	sections    []*Enc
}

// NewWriter starts a snapshot carrying the given config fingerprint.
func NewWriter(fingerprint uint64) *Writer {
	return &Writer{fingerprint: fingerprint}
}

// Section starts a new named section and returns its encoder. Names must be
// unique within a snapshot.
func (w *Writer) Section(name string) *Enc {
	for _, n := range w.names {
		if n == name {
			panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
		}
	}
	e := &Enc{}
	w.names = append(w.names, name)
	w.sections = append(w.sections, e)
	return e
}

// WriteTo serializes the assembled snapshot.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.fingerprint)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.sections)))
	for i, e := range w.sections {
		name := w.names[i]
		var crc uint32
		for _, c := range e.chunks {
			crc = crc32.Update(crc, crc32.IEEETable, c)
		}
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
		hdr = append(hdr, name...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(e.size()))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc)
	}
	var written int64
	n, err := out.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("checkpoint: write header: %w", err)
	}
	for i, e := range w.sections {
		for _, c := range e.chunks {
			n, err := out.Write(c)
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

// Section returns a decoder over the named payload, or an ErrCorrupt-wrapped
// error when the snapshot lacks it.
func (r *Reader) Section(name string) (*Dec, error) {
	payload, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return NewDec(name, payload), nil
}
