package rl

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
)

func intState(c *checkpoint.Codec, v *int) { c.Int(v) }

func section(t *testing.T, fill func(*checkpoint.Codec)) *checkpoint.Codec {
	t.Helper()
	w := checkpoint.NewWriter(0)
	fill(w.Section("s"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("s")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	return d
}

// TestReplayRoundTrip covers both a partially filled and a wrapped ring:
// cursor, fill flag, and contents must all survive.
func TestReplayRoundTrip(t *testing.T) {
	for _, adds := range []int{5, 12} {
		r1 := NewReplay[int](8)
		for i := 0; i < adds; i++ {
			r1.Add(100 + i)
		}
		d := section(t, func(e *checkpoint.Codec) { ReplayState(r1, e, intState) })
		r2 := NewReplay[int](8)
		if ReplayState(r2, d, intState); d.End() != nil {
			t.Fatalf("adds=%d ReplayState: %v", adds, d.End())
		}
		if r2.Len() != r1.Len() || r2.next != r1.next || r2.full != r1.full {
			t.Fatalf("adds=%d cursor state: (%d,%d,%v) vs (%d,%d,%v)",
				adds, r2.Len(), r2.next, r2.full, r1.Len(), r1.next, r1.full)
		}
		for i := 0; i < r1.Len(); i++ {
			if r2.At(i) != r1.At(i) {
				t.Fatalf("adds=%d slot %d: %d vs %d", adds, i, r2.At(i), r1.At(i))
			}
		}
		// The restored ring must keep evicting in the original order.
		r1.Add(999)
		r2.Add(999)
		if r1.next != r2.next || r1.Latest() != r2.Latest() {
			t.Fatalf("adds=%d post-restore Add diverges", adds)
		}
	}
}

func TestReplayRestoreCapacityMismatch(t *testing.T) {
	r1 := NewReplay[int](8)
	r1.Add(1)
	d := section(t, func(e *checkpoint.Codec) { ReplayState(r1, e, intState) })
	r2 := NewReplay[int](16)
	ReplayState(r2, d, intState)
	if err := d.End(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("capacity mismatch: got %v, want ErrConfigMismatch", err)
	}
}

// TestEpsilonGreedyAndIntegratorRoundTrip checks the exploration schedule
// and the in-flight reward sojourn restore verbatim.
func TestEpsilonGreedyAndIntegratorRoundTrip(t *testing.T) {
	p1 := NewEpsilonGreedy(1.0, 0.05, 0.999, mat.NewRNG(3))
	for i := 0; i < 40; i++ {
		p1.Select(4, func() int { return 0 })
	}
	ri1 := NewRewardIntegrator(0.5)
	ri1.Reset(10, 2.25)
	ri1.SetRate(12, 3.5)

	d := section(t, func(e *checkpoint.Codec) {
		p1.State(e)
		ri1.State(e)
	})
	p2 := NewEpsilonGreedy(1.0, 0.05, 0.999, mat.NewRNG(3))
	ri2 := NewRewardIntegrator(0.5)
	p2.State(d)
	ri2.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if p2.Epsilon() != p1.Epsilon() {
		t.Fatalf("epsilon %v vs %v", p2.Epsilon(), p1.Epsilon())
	}
	if ri2.started != ri1.started || ri2.t0 != ri1.t0 || ri2.last != ri1.last ||
		ri2.rate != ri1.rate || ri2.integral != ri1.integral {
		t.Fatalf("integrator state diverged: %+v vs %+v", *ri2, *ri1)
	}
}

// TestQTableRejectsCraftedCount: a CRC-valid payload may claim any row count;
// it must be bounded by the bytes that remain before anything is sized by it
// (2^28 rows used to reach two make(map, n) calls — gigabytes — before the
// first row was read).
func TestQTableRejectsCraftedCount(t *testing.T) {
	d := section(t, func(e *checkpoint.Codec) {
		rows := 1 << 28
		e.Int(&rows)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewQTable(3, 0.1, 0.5, 0).State(d)
	err := d.Err()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("crafted row count: got %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the crafted count allocated %d bytes", grew)
	}
}
