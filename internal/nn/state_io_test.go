package nn

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"hierdrl/internal/checkpoint"
)

func adamSection(t *testing.T, a *Adam) *checkpoint.Codec {
	t.Helper()
	w := checkpoint.NewWriter(0)
	a.State(w.Section("adam"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("adam")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	return d
}

func mkParams(vals ...float64) []Param {
	ps := make([]Param, len(vals))
	for i, v := range vals {
		ps[i] = Param{Val: []float64{v, v * 2}, Grad: []float64{0, 0}}
	}
	return ps
}

func fakeGrads(ps []Param, step int) {
	for i := range ps {
		for k := range ps[i].Grad {
			ps[i].Grad[k] = math.Sin(float64(step*7+i*3+k)) * 0.1
		}
	}
}

// TestAdamStateRoundTrip: a restored optimizer must continue the moment
// trajectory bitwise — identical further Steps on identical params produce
// identical weights (bias correction depends on t, so t must survive too).
func TestAdamStateRoundTrip(t *testing.T) {
	a1 := NewAdam(0.01)
	p1 := mkParams(1, -2, 0.5)
	for s := 0; s < 10; s++ {
		fakeGrads(p1, s)
		a1.Step(p1)
	}

	d := adamSection(t, a1)
	a2 := NewAdam(0.01)
	a2.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("State: %v", err)
	}
	if a2.Steps() != a1.Steps() {
		t.Fatalf("step count %d vs %d", a2.Steps(), a1.Steps())
	}

	// Clone the params and continue both optimizers in lockstep.
	p2 := make([]Param, len(p1))
	for i := range p1 {
		p2[i] = Param{
			Val:  append([]float64(nil), p1[i].Val...),
			Grad: make([]float64, len(p1[i].Grad)),
		}
	}
	for s := 10; s < 20; s++ {
		fakeGrads(p1, s)
		fakeGrads(p2, s)
		a1.Step(p1)
		a2.Step(p2)
	}
	for i := range p1 {
		for k := range p1[i].Val {
			if math.Float64bits(p1[i].Val[k]) != math.Float64bits(p2[i].Val[k]) {
				t.Fatalf("param %d[%d] diverges: %v vs %v", i, k, p1[i].Val[k], p2[i].Val[k])
			}
		}
	}
}

// TestAdamNeverSteppedRoundTrip: lazily allocated moments mean a fresh
// optimizer serializes as (t=0, no tensors) and restores the same way.
func TestAdamNeverSteppedRoundTrip(t *testing.T) {
	a1 := NewAdam(0.01)
	d := adamSection(t, a1)
	a2 := NewAdam(0.01)
	// Pre-populate to prove restore clears back to the virgin state.
	a2.m = [][]float64{{1}}
	a2.v = [][]float64{{1}}
	a2.t = 5
	if a2.State(d); d.Err() != nil {
		t.Fatalf("State: %v", d.Err())
	}
	if a2.t != 0 || a2.m != nil || a2.v != nil {
		t.Fatalf("virgin optimizer restored as t=%d, %d moment tensors", a2.t, len(a2.m))
	}
}

// TestAdamRejectsCraftedCount: the moment-tensor count is bounded by the
// bytes that remain in the payload, not by a fixed cap — 2^19 tensors passed
// the old 2^20 cap and sized two slices before the first read failed.
func TestAdamRejectsCraftedCount(t *testing.T) {
	w := checkpoint.NewWriter(0)
	e := w.Section("adam")
	steps, count := 7, 1<<19
	e.Int(&steps)
	e.Int(&count)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := rd.Section("adam")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewAdam(0.01).State(d)
	err = d.Err()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("crafted tensor count: got %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the crafted count allocated %d bytes", grew)
	}
}
