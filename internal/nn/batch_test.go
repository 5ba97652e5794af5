package nn

import (
	"slices"
	"testing"

	"hierdrl/internal/mat"
)

// forEachKernelFamily runs f as one subtest per mat kernel family this host
// supports (avx512, avx2, portable): the batched == per-sample contracts must
// hold on each, not only on the one the CPU selects.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	mat.ForEachKernelFamily(func(family string) { t.Run(family, f) })
}

var batchShapes = []struct{ in, out, b int }{
	{1, 1, 1}, {1, 9, 4}, {9, 1, 4}, {3, 5, 1}, {5, 3, 2},
	{8, 8, 8}, {13, 7, 5}, {30, 40, 32}, {40, 30, 33},
}

func randBatch(b, n int, rng *mat.RNG) *mat.Dense {
	X := mat.NewDense(b, n)
	for i := range X.Data {
		X.Data[i] = rng.Normal(0, 1)
	}
	return X
}

func TestDenseInferBatchMatchesPerSample(t *testing.T) {
	forEachKernelFamily(t, testDenseInferBatchMatchesPerSample)
}

func testDenseInferBatchMatchesPerSample(t *testing.T) {
	rng := mat.NewRNG(11)
	for _, sh := range batchShapes {
		for _, act := range []Activation{Identity, ELU, Tanh, Sigmoid} {
			d := NewDense(sh.in, sh.out, act, rng)
			X := randBatch(sh.b, sh.in, rng)
			Y := mat.NewDense(sh.b, sh.out)
			d.InferBatch(X, Y)
			want := mat.NewVec(sh.out)
			for b := 0; b < sh.b; b++ {
				d.Infer(X.Row(b), want)
				for i := range want {
					if Y.At(b, i) != want[i] {
						t.Fatalf("in=%d out=%d b=%d act=%d: InferBatch row %d diverges",
							sh.in, sh.out, sh.b, act, b)
					}
				}
			}
		}
	}
}

func TestDenseForwardBatchMatchesPerSample(t *testing.T) {
	forEachKernelFamily(t, testDenseForwardBatchMatchesPerSample)
}

func testDenseForwardBatchMatchesPerSample(t *testing.T) {
	rng := mat.NewRNG(12)
	for _, sh := range batchShapes {
		// Two identical layers: one driven per sample, one batched.
		ref := NewDense(sh.in, sh.out, ELU, mat.NewRNG(99))
		bat := NewDense(sh.in, sh.out, ELU, mat.NewRNG(99))
		X := randBatch(sh.b, sh.in, rng)
		dY := randBatch(sh.b, sh.out, rng)

		dXRef := mat.NewDense(sh.b, sh.in)
		for b := 0; b < sh.b; b++ {
			_, back := ref.Forward(X.Row(b))
			dXRef.Row(b).CopyFrom(back(dY.Row(b)))
		}

		// The batched layer runs in row ranges of 3 and neuron ranges of 5,
		// as a split train step hands them out: the pieces must add up to
		// the per-sample path bit for bit.
		pre, Y := mat.NewDense(sh.b, sh.out), mat.NewDense(sh.b, sh.out)
		dPre, dX := mat.NewDense(sh.b, sh.out), mat.NewDense(sh.b, sh.in)
		for r := 0; r < sh.b; r += 3 {
			bat.forwardRows(X, pre, Y, r, min(r+3, sh.b))
			bat.backwardRows(dY, pre, Y, dPre, dX, r, min(r+3, sh.b))
		}
		for o := 0; o < sh.out; o += 5 {
			bat.gradRows(X, dPre, o, min(o+5, sh.out))
		}

		wantY := mat.NewVec(sh.out)
		for b := 0; b < sh.b; b++ {
			ref.Infer(X.Row(b), wantY)
			for i := range wantY {
				if Y.At(b, i) != wantY[i] {
					t.Fatalf("shape %+v: batched forward output row %d diverges", sh, b)
				}
			}
		}
		if !sameDense(bat.GW, ref.GW) {
			t.Fatalf("shape %+v: batched dW diverges from per-sample accumulation", sh)
		}
		if d := maxAbsDiffVec(bat.GB, ref.GB); d != 0 {
			t.Fatalf("shape %+v: batched db diverges by %g", sh, d)
		}
		if !sameDense(dX, dXRef) {
			t.Fatalf("shape %+v: batched dX diverges from per-sample backward", sh)
		}
	}
}

// sameDense reports whether a and b have the same shape and equal elements.
func sameDense(a, b *mat.Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

func maxAbsDiffVec(a, b mat.Vec) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		if x < 0 {
			x = -x
		}
		if x > d {
			d = x
		}
	}
	return d
}

func TestMLPBatchMatchesPerSample(t *testing.T) { forEachKernelFamily(t, testMLPBatchMatchesPerSample) }

func testMLPBatchMatchesPerSample(t *testing.T) {
	rng := mat.NewRNG(13)
	sizes := []int{7, 11, 5, 3}
	acts := []Activation{ELU, Tanh, Identity}
	ref := NewMLP(sizes, acts, mat.NewRNG(42))
	bat := NewMLP(sizes, acts, mat.NewRNG(42))
	B := 17
	X := randBatch(B, 7, rng)
	dY := randBatch(B, 3, rng)

	dXRef := mat.NewDense(B, 7)
	for b := 0; b < B; b++ {
		_, back := ref.Forward(X.Row(b))
		dXRef.Row(b).CopyFrom(back(dY.Row(b)))
	}
	var tape BatchTape
	fws := mat.NewWorkspace()
	Y := bat.ForwardBatchWS(fws, X, &tape)
	dX := bat.BackwardBatchWS(&tape, dY, true)

	for b := 0; b < B; b++ {
		want := bat.Infer(X.Row(b))
		for i := range want {
			if Y.At(b, i) != want[i] {
				t.Fatalf("MLP batched forward row %d diverges", b)
			}
		}
	}
	refPs, batPs := ref.Params(), bat.Params()
	for i := range refPs {
		for j := range refPs[i].Grad {
			if refPs[i].Grad[j] != batPs[i].Grad[j] {
				t.Fatalf("MLP batched gradient diverges at %s[%d]", refPs[i].Name, j)
			}
		}
	}
	if !sameDense(dX, dXRef) {
		t.Fatal("MLP batched dX diverges")
	}

	// Workspace inference paths agree with the allocating ones.
	ws := mat.NewWorkspace()
	ws.Reset()
	Yws := bat.InferBatchWS(ws, X)
	if !sameDense(Yws, Y) {
		t.Fatal("InferBatchWS diverges from ForwardBatchWS output")
	}
	ws.Reset()
	yv := bat.InferWS(ws, X.Row(0))
	for i := range yv {
		if yv[i] != Y.At(0, i) {
			t.Fatal("InferWS diverges")
		}
	}
}

// trainBatchPerSampleRef replicates the seed's per-sample autoencoder
// training step (the pre-batching reference path).
func trainBatchPerSampleRef(a *Autoencoder, xs []mat.Vec, opt *Adam, clipNorm float64) float64 {
	params := a.Params()
	ZeroGrads(params)
	var total float64
	scale := 1 / float64(len(xs))
	for _, x := range xs {
		code, encBack := a.Enc.Forward(x)
		y, decBack := a.Dec.Forward(code)
		loss, grad := MSE(y, x)
		total += loss
		for i := range grad {
			grad[i] *= scale
		}
		encBack(decBack(grad))
	}
	if clipNorm > 0 {
		ClipGrads(params, clipNorm)
	}
	opt.Step(params)
	return total / float64(len(xs))
}

func TestAutoencoderTrainBatchMatchesPerSample(t *testing.T) {
	forEachKernelFamily(t, testAutoencoderTrainBatchMatchesPerSample)
}

func testAutoencoderTrainBatchMatchesPerSample(t *testing.T) {
	for _, B := range []int{1, 2, 7, 32} {
		ref := NewAutoencoder(12, []int{8, 4}, mat.NewRNG(7))
		bat := NewAutoencoder(12, []int{8, 4}, mat.NewRNG(7))
		refOpt := NewAdam(1e-3)
		batOpt := NewAdam(1e-3)
		rng := mat.NewRNG(int64(100 + B))
		for step := 0; step < 3; step++ {
			xs := make([]mat.Vec, B)
			for b := range xs {
				xs[b] = mat.NewVec(12)
				for i := range xs[b] {
					xs[b][i] = rng.Normal(0, 1)
				}
			}
			lRef := trainBatchPerSampleRef(ref, xs, refOpt, 10)
			lBat := bat.TrainBatch(xs, batOpt, 10)
			if lRef != lBat {
				t.Fatalf("B=%d step=%d: loss %v != %v", B, step, lBat, lRef)
			}
		}
		refPs, batPs := ref.Params(), bat.Params()
		for i := range refPs {
			for j := range refPs[i].Val {
				if refPs[i].Val[j] != batPs[i].Val[j] {
					t.Fatalf("B=%d: weights diverge at %s[%d]", B, refPs[i].Name, j)
				}
			}
		}
	}
}

func TestInferBatchSteadyStateZeroAlloc(t *testing.T) {
	rng := mat.NewRNG(21)
	m := NewMLP([]int{30, 40, 11}, []Activation{ELU, Identity}, rng)
	X := randBatch(16, 30, rng)
	ws := mat.NewWorkspace()
	// Prime the arena to its high-water mark.
	ws.Reset()
	m.InferBatchWS(ws, X)
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.InferBatchWS(ws, X)
	})
	if allocs != 0 {
		t.Fatalf("steady-state InferBatchWS allocates %v per run, want 0", allocs)
	}
	x := X.Row(0)
	ws.Reset()
	m.InferWS(ws, x)
	allocs = testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.InferWS(ws, x)
	})
	if allocs != 0 {
		t.Fatalf("steady-state InferWS allocates %v per run, want 0", allocs)
	}
}
