package fault

import (
	"bytes"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
)

// TestExpClockRoundTrip: a restored failure clock continues its draw
// sequence bitwise — the post-restore crash/repair schedule is exactly the
// one the interrupted run would have produced.
func TestExpClockRoundTrip(t *testing.T) {
	m, err := ExpClocks(42, 3600, 300, nil, 0)
	if err != nil {
		t.Fatalf("ExpClocks: %v", err)
	}
	c1 := m(5).(*expClock)
	// Advance the chain mid-alternation.
	for i := 0; i < 7; i++ {
		c1.NextFailure()
		c1.NextRepair()
	}

	w := checkpoint.NewWriter(0)
	w.Section("clock").Component(c1)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	// Restore into a clock from an unrelated seed: every construction draw
	// must be overwritten by the replayed chain.
	m2, err := ExpClocks(999, 3600, 300, nil, 0)
	if err != nil {
		t.Fatalf("ExpClocks: %v", err)
	}
	c2 := m2(0).(*expClock)
	c2.NextFailure()
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("clock")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if d.Component(c2); d.End() != nil {
		t.Fatalf("Component: %v", d.End())
	}

	for i := 0; i < 10; i++ {
		f1, f2 := c1.NextFailure(), c2.NextFailure()
		r1, r2 := c1.NextRepair(), c2.NextRepair()
		if math.Float64bits(f1) != math.Float64bits(f2) || math.Float64bits(r1) != math.Float64bits(r2) {
			t.Fatalf("draw %d diverges: failure %v vs %v, repair %v vs %v", i, f1, f2, r1, r2)
		}
	}
}

// TestRetryPoliciesAreStateless pins the checkpoint contract of the retry
// policy: a pure function of the attempt count serializes as stateless, in
// each of its three shapes (immediate, backoff, drop-after).
func TestRetryPoliciesAreStateless(t *testing.T) {
	for _, p := range []any{Retry{}, Retry{BaseSec: 30, CapSec: 600}, Retry{Max: 2}} {
		if _, ok := p.(checkpoint.Stateless); !ok {
			t.Fatalf("%+v must be checkpoint.Stateless", p)
		}
		if _, ok := p.(checkpoint.Stateful); ok {
			t.Fatalf("%+v must not also be Stateful", p)
		}
	}
}
