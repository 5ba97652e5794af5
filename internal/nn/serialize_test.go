package nn

import (
	"bytes"
	"testing"

	"hierdrl/internal/mat"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := mat.NewRNG(1)
	a := NewMLP([]int{3, 5, 2}, []Activation{ELU, Identity}, rng)
	b := NewMLP([]int{3, 5, 2}, []Activation{ELU, Identity}, rng)

	var buf bytes.Buffer
	if err := TakeSnapshot(a.Params()).Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if err := snap.Restore(b.Params()); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	x := mat.Vec{0.3, -0.2, 0.9}
	ya, yb := a.Infer(x), b.Infer(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("restored network differs at %d: %v vs %v", i, ya[i], yb[i])
		}
	}
}

func TestSnapshotRejectsMismatchedArchitecture(t *testing.T) {
	rng := mat.NewRNG(2)
	small := NewMLP([]int{3, 4, 2}, []Activation{ELU, Identity}, rng)
	big := NewMLP([]int{3, 8, 2}, []Activation{ELU, Identity}, rng)
	deep := NewMLP([]int{3, 4, 4, 2}, []Activation{ELU, ELU, Identity}, rng)

	snap := TakeSnapshot(small.Params())
	if err := snap.Restore(big.Params()); err == nil {
		t.Fatal("wrong layer width accepted")
	}
	if err := snap.Restore(deep.Params()); err == nil {
		t.Fatal("wrong depth accepted")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := []Param{{Name: "w", Val: []float64{1, 2}, Grad: []float64{0, 0}}}
	snap := TakeSnapshot(p)
	p[0].Val[0] = 42
	if snap["w"][0] != 1 {
		t.Fatal("snapshot aliases live weights")
	}
}

func TestReadSnapshotBadJSON(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("{oops")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
