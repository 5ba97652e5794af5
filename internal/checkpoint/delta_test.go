package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// deltaRoundTrip encodes cur against prev, decodes the payload back against
// prev and returns the payload and the decoded slice.
func deltaRoundTrip(t *testing.T, prev, cur []float64) ([]byte, []float64) {
	t.Helper()
	var e Codec
	e.F64sDelta(prev, cur)
	payload := e.Payload()
	got := make([]float64, len(cur))
	d := NewDec("delta", payload)
	d.F64sDelta(prev, got)
	if err := d.End(); err != nil {
		t.Fatalf("decode of a fresh encoding: %v", err)
	}
	return payload, got
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestF64sDeltaMatchesReference encodes random prev/cur pairs at widths on
// both sides of a 64-word window, with none to all words changed, and with
// changes only a bitwise comparison sees (-0 against +0, two NaN payloads).
// Each must round-trip bit for bit, write the bytes a reference built from
// I64/F64 writes, and be exactly 8 bytes per window plus 8 per changed word.
func TestF64sDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	nanA, nanB := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	for _, width := range []int{1, 63, 64, 65, 94, 200} {
		for _, nChanged := range []int{0, 1, width / 2, width - 1, width} {
			prev := make([]float64, width)
			for i := range prev {
				prev[i] = rng.NormFloat64()
			}
			cur := append([]float64(nil), prev...)
			changed := make([]bool, width)
			for _, i := range rng.Perm(width)[:nChanged] {
				changed[i] = true
				switch rng.Intn(3) {
				case 0: // a sign flip of zero
					prev[i], cur[i] = 0, negZero
				case 1: // the same NaN with another payload
					prev[i], cur[i] = nanA, nanB
				default:
					cur[i] = rng.NormFloat64()
				}
			}
			// An unchanged NaN is no change.
			if nChanged < width {
				for i := range changed {
					if !changed[i] {
						prev[i], cur[i] = nanA, nanA
						break
					}
				}
			}

			payload, got := deltaRoundTrip(t, prev, cur)
			if !sameBits(got, cur) {
				t.Fatalf("width %d, %d changed: round trip lost bits", width, nChanged)
			}
			if want := 8*((width+63)/64) + 8*nChanged; len(payload) != want {
				t.Fatalf("width %d, %d changed: %d bytes, want %d", width, nChanged, len(payload), want)
			}
			var ref Codec
			for lo := 0; lo < width; lo += 64 {
				hi := min(lo+64, width)
				var mask uint64
				for i := lo; i < hi; i++ {
					if changed[i] {
						mask |= 1 << (i - lo)
					}
				}
				m := int64(mask)
				ref.I64(&m)
				for i := lo; i < hi; i++ {
					if changed[i] {
						ref.F64(&cur[i])
					}
				}
			}
			if !bytes.Equal(payload, ref.Payload()) {
				t.Fatalf("width %d, %d changed: payload differs from the reference", width, nChanged)
			}
		}
	}
}

// TestF64sDeltaRejectsUnchangedWord: a mask naming a word whose bits equal
// prev's is not an encoding the encoder writes, so it fails, even for a NaN.
func TestF64sDeltaRejectsUnchangedWord(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	prev := []float64{1, nan, 3}
	for i, word := range []uint64{math.Float64bits(1), 0x7ff8000000000001} {
		payload := binary.LittleEndian.AppendUint64(nil, 1<<i)
		payload = binary.LittleEndian.AppendUint64(payload, word)
		d := NewDec("delta", payload)
		d.F64sDelta(prev, make([]float64, 3))
		if err := d.End(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("word %d named unchanged: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// FuzzF64sDelta decodes arbitrary bytes as a delta of an arbitrary width
// against an arbitrary previous slice. The decode either fails with an
// ErrCorrupt-wrapped error or yields a slice that encodes back to exactly the
// payload and decodes back to itself bit for bit; it never panics.
func FuzzF64sDelta(f *testing.F) {
	seed := func(width int, prev, cur []float64) {
		var e Codec
		e.F64sDelta(prev, cur)
		var words Codec
		for i := range prev {
			words.F64(&prev[i])
		}
		f.Add(uint8(width), words.Payload(), e.Payload())
	}
	seed(1, []float64{1}, []float64{2})
	seed(3, []float64{0, math.NaN(), 3}, []float64{math.Copysign(0, -1), math.NaN(), 3})
	p := make([]float64, 94)
	q := make([]float64, 94)
	for i := range q {
		q[i] = float64(i % 7)
	}
	seed(94, p, q)
	f.Add(uint8(22), []byte{}, []byte{0, 0, 0, 0, 0, 0, 0x40, 0})                      // a bit past width 22
	f.Add(uint8(64), []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // 64 words named, none held

	f.Fuzz(func(t *testing.T, width uint8, words, payload []byte) {
		prev := make([]float64, width)
		for i := range prev {
			var u uint64
			for k := 0; k < 8 && len(words) > 0; k++ {
				u |= uint64(words[(8*i+k)%len(words)]) << (8 * k)
			}
			prev[i] = math.Float64frombits(u)
		}
		cur := make([]float64, width)
		d := NewDec("fuzz", payload)
		d.F64sDelta(prev, cur)
		if err := d.End(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failed without ErrCorrupt: %v", err)
			}
			return
		}
		again, got := deltaRoundTrip(t, prev, cur)
		if !bytes.Equal(again, payload) {
			t.Fatal("accepted delta re-encodes to other bytes")
		}
		if !sameBits(got, cur) {
			t.Fatal("accepted delta does not round-trip bit for bit")
		}
	})
}
