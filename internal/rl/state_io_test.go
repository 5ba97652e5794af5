package rl

import (
	"bytes"
	"errors"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
)

func intState(c *checkpoint.Codec, _ int, v *int) { c.Int(v) }

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
			push(r1, 100+i)
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
		push(r1, 999)
		push(r2, 999)
		if r1.next != r2.next || r1.Latest() != r2.Latest() {
			t.Fatalf("adds=%d post-restore Add diverges", adds)
		}
	}
}

func TestReplayRestoreCapacityMismatch(t *testing.T) {
	r1 := NewReplay[int](8)
	push(r1, 1)
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
		p1.SelectAction(4, 0)
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

// TestQTableStateRoundTrip: the table's walk restores every Q-value and
// visit count into a fresh table of the same shape.
func TestQTableStateRoundTrip(t *testing.T) {
	q1 := NewQTable(3, 2, 0.5, 0.5, 1)
	q1.Update(0, 1, 4, 2, 2)
	q1.Update(2, 0, -3, 1, 0)
	q1.Update(2, 0, -3, 1, 1)
	d := section(t, q1.State)
	q2 := NewQTable(3, 2, 0.5, 0.5, 1)
	if q2.State(d); d.End() != nil {
		t.Fatalf("restore: %v", d.End())
	}
	for s := 0; s < 3; s++ {
		for a := 0; a < 2; a++ {
			if q2.row(s)[a] != q1.row(s)[a] || q2.visits[s*q1.nActions+a] != q1.visits[s*q1.nActions+a] {
				t.Fatalf("(%d,%d): Q %v visits %d, want %v, %d", s, a, q2.row(s)[a], q2.visits[s*q1.nActions+a], q1.row(s)[a], q1.visits[s*q1.nActions+a])
			}
		}
	}
}

// TestQTableRejectsShortOrWidePayload: the table's width is construction
// config, so a payload cut short, or one written by a table of another
// shape, is ErrCorrupt.
func TestQTableRejectsShortOrWidePayload(t *testing.T) {
	payload := func(nStates, nActions int) []byte {
		var e checkpoint.Codec
		NewQTable(nStates, nActions, 0.5, 0.5, 0).State(&e)
		return e.Payload()
	}
	good := payload(3, 2)
	for name, b := range map[string][]byte{
		"short":      good[:len(good)-8],
		"more-rows":  payload(4, 2),
		"fewer-rows": payload(2, 2),
		"wider-rows": payload(3, 3),
	} {
		d := checkpoint.NewDec("s", b)
		if NewQTable(3, 2, 0.5, 0.5, 0).State(d); !errors.Is(d.End(), checkpoint.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, d.End())
		}
	}
}
