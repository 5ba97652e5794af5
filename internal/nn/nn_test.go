package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hierdrl/internal/mat"
)

// MSE returns the mean-squared-error loss between prediction y and target t,
// along with the gradient dL/dy. The loss is 1/n * sum (y_i - t_i)^2.
func MSE(y, t mat.Vec) (loss float64, grad mat.Vec) {
	if len(y) != len(t) {
		panic(fmt.Sprintf("nn: MSE length mismatch %d != %d", len(y), len(t)))
	}
	grad = mat.NewVec(len(y))
	n := float64(len(y))
	for i := range y {
		d := y[i] - t[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}

// ReconstructionLoss runs encode+decode on x and returns the MSE
// reconstruction loss without updating any weights.
func (a *Autoencoder) ReconstructionLoss(x mat.Vec) float64 {
	y := a.Dec.Infer(a.Enc.Infer(x))
	loss, _ := MSE(y, x)
	return loss
}

// scalarActs is the scalar reference for each activation: its value, and
// its derivative given the input x and the output y.
var scalarActs = map[Activation]struct {
	f     func(x float64) float64
	deriv func(x, y float64) float64
}{
	Identity: {func(x float64) float64 { return x }, func(_, _ float64) float64 { return 1 }},
	ELU: {
		func(x float64) float64 {
			if x >= 0 {
				return x
			}
			return math.Exp(x) - 1
		},
		func(x, y float64) float64 {
			if x >= 0 {
				return 1
			}
			return y + 1
		},
	},
	Tanh:    {math.Tanh, func(_, y float64) float64 { return 1 - y*y }},
	Sigmoid: {func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, func(_, y float64) float64 { return y * (1 - y) }},
}

// act1 runs one scalar through the layer paths, applyAct and applyActDeriv.
func act1(a Activation, x float64) (y, dydx float64) {
	out, d := []float64{0}, []float64{0}
	applyAct(a, []float64{x}, out)
	applyActDeriv(a, []float64{1}, []float64{x}, out, d)
	return out[0], d[0]
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		y    float64
		dydx float64
	}{
		{ELU, 2, 2, 1},
		{ELU, -1, math.Exp(-1) - 1, math.Exp(-1)},
		{Tanh, 0, 0, 1},
		{Sigmoid, 0, 0.5, 0.25},
		{Identity, -7, -7, 1},
	}
	for _, tc := range cases {
		y, d := act1(tc.act, tc.x)
		if math.Abs(y-tc.y) > 1e-12 {
			t.Errorf("activation %d at %v = %v, want %v", tc.act, tc.x, y, tc.y)
		}
		if math.Abs(d-tc.dydx) > 1e-12 {
			t.Errorf("activation %d derivative at %v = %v, want %v", tc.act, tc.x, d, tc.dydx)
		}
	}
	// The layer paths agree with the scalar reference across the range.
	for a, ref := range scalarActs {
		for x := -6.0; x <= 6; x += 0.125 {
			y, d := act1(a, x)
			if want := ref.f(x); math.Abs(y-want) > 1e-12 {
				t.Errorf("activation %d at %v = %v, scalar reference %v", a, x, y, want)
			}
			if want := ref.deriv(x, ref.f(x)); math.Abs(d-want) > 1e-12 {
				t.Errorf("activation %d derivative at %v = %v, scalar reference %v", a, x, d, want)
			}
		}
	}
}

// Property: each activation's derivative matches a central finite
// difference of its scalar reference.
func TestActivationDerivativeProperty(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(raw, 5)
		if math.IsNaN(x) {
			return true
		}
		const h = 1e-6
		for _, a := range scalarActs {
			want := (a.f(x+h) - a.f(x-h)) / (2 * h)
			got := a.deriv(x, a.f(x))
			if math.Abs(got-want) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseForwardShapes(t *testing.T) {
	rng := mat.NewRNG(1)
	d := NewDense(3, 2, Identity, rng)
	y, _ := d.Forward(mat.Vec{1, 2, 3})
	if len(y) != 2 {
		t.Fatalf("output length %d want 2", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input length should panic")
		}
	}()
	d.Forward(mat.Vec{1, 2})
}

func TestDenseInferMatchesForward(t *testing.T) {
	rng := mat.NewRNG(2)
	d := NewDense(4, 3, ELU, rng)
	x := mat.Vec{0.1, -0.2, 0.3, 0.7}
	yF, _ := d.Forward(x)
	yI := mat.NewVec(3)
	d.Infer(x, yI)
	for i := range yF {
		if math.Abs(yF[i]-yI[i]) > 1e-12 {
			t.Fatalf("Forward/Infer mismatch at %d: %v vs %v", i, yF[i], yI[i])
		}
	}
}

// numericalGrad computes dLoss/dtheta by central differences for a scalar
// loss function of the network output.
func numericalGrad(theta []float64, loss func() float64) []float64 {
	const h = 1e-6
	out := make([]float64, len(theta))
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + h
		lp := loss()
		theta[i] = orig - h
		lm := loss()
		theta[i] = orig
		out[i] = (lp - lm) / (2 * h)
	}
	return out
}

func TestDenseGradCheck(t *testing.T) {
	rng := mat.NewRNG(3)
	d := NewDense(3, 2, ELU, rng)
	x := mat.Vec{0.5, -0.4, 0.9}
	target := mat.Vec{0.3, -0.1}

	lossFn := func() float64 {
		y := mat.NewVec(2)
		d.Infer(x, y)
		l, _ := MSE(y, target)
		return l
	}

	ZeroGrads(d.Params())
	y, back := d.Forward(x)
	_, grad := MSE(y, target)
	dx := back(grad)

	for _, p := range d.Params() {
		want := numericalGrad(p.Val, lossFn)
		for i := range want {
			if math.Abs(p.Grad[i]-want[i]) > 1e-5 {
				t.Fatalf("param %s grad[%d]: analytic %v numeric %v",
					p.Name, i, p.Grad[i], want[i])
			}
		}
	}

	// Input gradient check.
	wantDx := numericalGrad(x, lossFn)
	for i := range wantDx {
		if math.Abs(dx[i]-wantDx[i]) > 1e-5 {
			t.Fatalf("dx[%d]: analytic %v numeric %v", i, dx[i], wantDx[i])
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := mat.NewRNG(4)
	m := NewMLP([]int{4, 5, 3}, []Activation{Tanh, Identity}, rng)
	x := mat.Vec{0.2, -0.7, 0.4, 0.1}
	target := mat.Vec{1, -1, 0.5}

	lossFn := func() float64 {
		l, _ := MSE(m.Infer(x), target)
		return l
	}

	ZeroGrads(m.Params())
	y, back := m.Forward(x)
	_, grad := MSE(y, target)
	back(grad)

	for _, p := range m.Params() {
		want := numericalGrad(p.Val, lossFn)
		for i := range want {
			if math.Abs(p.Grad[i]-want[i]) > 1e-5 {
				t.Fatalf("param %s grad[%d]: analytic %v numeric %v",
					p.Name, i, p.Grad[i], want[i])
			}
		}
	}
}

// Weight sharing: applying the same layer to two inputs must accumulate the
// sum of the per-input gradients.
func TestDenseWeightSharingAccumulates(t *testing.T) {
	rng := mat.NewRNG(5)
	d := NewDense(2, 2, Identity, rng)
	x1 := mat.Vec{1, 0}
	x2 := mat.Vec{0, 1}
	target := mat.Vec{0, 0}

	// Individually.
	ZeroGrads(d.Params())
	y1, b1 := d.Forward(x1)
	_, g1 := MSE(y1, target)
	b1(g1)
	grad1 := slices.Clone(d.GW.Data)

	ZeroGrads(d.Params())
	y2, b2 := d.Forward(x2)
	_, g2 := MSE(y2, target)
	b2(g2)
	grad2 := slices.Clone(d.GW.Data)

	// Shared (two applications before reading gradients).
	ZeroGrads(d.Params())
	ya, ba := d.Forward(x1)
	yb, bb := d.Forward(x2)
	_, ga := MSE(ya, target)
	_, gb := MSE(yb, target)
	ba(ga)
	bb(gb)

	for i := range d.GW.Data {
		want := grad1[i] + grad2[i]
		if math.Abs(d.GW.Data[i]-want) > 1e-12 {
			t.Fatalf("shared grad[%d] = %v, want sum %v", i, d.GW.Data[i], want)
		}
	}
}

func TestMSE(t *testing.T) {
	loss, grad := MSE(mat.Vec{1, 2}, mat.Vec{0, 0})
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("MSE loss: got %v want 2.5", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Fatalf("MSE grad: got %v", grad)
	}
}

func TestClipGrads(t *testing.T) {
	p := Param{Val: []float64{0, 0}, Grad: []float64{3, 4}}
	pre := ClipGrads([]Param{p}, 10)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm: got %v want 5", pre)
	}
	if p.Grad[0] != 3 || p.Grad[1] != 4 {
		t.Fatal("grads below maxNorm must be unchanged")
	}
	ClipGrads([]Param{p}, 1)
	if n := GradNorm([]Param{p}); math.Abs(n-1) > 1e-12 {
		t.Fatalf("post-clip norm: got %v want 1", n)
	}
	// Direction preserved.
	if math.Abs(p.Grad[0]/p.Grad[1]-0.75) > 1e-12 {
		t.Fatal("clipping changed gradient direction")
	}
}

func TestClipGradsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		n := 1 + g.Intn(20)
		grad := make([]float64, n)
		g.FillVecNormal(grad, 0, 5)
		p := []Param{{Val: make([]float64, n), Grad: grad}}
		max := 0.1 + g.Float64()*5
		ClipGrads(p, max)
		return GradNorm(p) <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 with Adam.
	w := []float64{0}
	g := []float64{0}
	p := []Param{{Val: w, Grad: g}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(p)
	}
	if math.Abs(w[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", w[0])
	}
	if opt.t != 500 {
		t.Fatalf("steps: got %d want 500", opt.t)
	}
}

func TestMLPLearnsLinearMap(t *testing.T) {
	rng := mat.NewRNG(11)
	m := NewMLP([]int{2, 8, 1}, []Activation{Tanh, Identity}, rng)
	opt := NewAdam(0.01)
	params := m.Params()

	sample := func(g *mat.RNG) (mat.Vec, mat.Vec) {
		x := mat.Vec{g.Uniform(-1, 1), g.Uniform(-1, 1)}
		return x, mat.Vec{0.5*x[0] - 0.3*x[1]}
	}

	var last float64
	for epoch := 0; epoch < 400; epoch++ {
		ZeroGrads(params)
		var total float64
		for b := 0; b < 16; b++ {
			x, tgt := sample(rng)
			y, back := m.Forward(x)
			l, grad := MSE(y, tgt)
			total += l
			for i := range grad {
				grad[i] /= 16
			}
			back(grad)
		}
		ClipGrads(params, 10)
		opt.Step(params)
		last = total / 16
	}
	if last > 1e-3 {
		t.Fatalf("MLP failed to fit linear map, final loss %v", last)
	}
}

func TestAutoencoderReconstruction(t *testing.T) {
	rng := mat.NewRNG(12)
	// Data on a 2-D manifold in 8-D space: the autoencoder with a 2-unit
	// code should reconstruct it well.
	basis1 := mat.NewVec(8)
	basis2 := mat.NewVec(8)
	rng.FillVecNormal(basis1, 0, 1)
	rng.FillVecNormal(basis2, 0, 1)
	sample := func() mat.Vec {
		a, b := rng.Uniform(-1, 1), rng.Uniform(-1, 1)
		x := mat.NewVec(8)
		for i := range x {
			x[i] = a*basis1[i] + b*basis2[i]
		}
		return x
	}
	ae := NewAutoencoder(8, []int{6, 2}, rng)
	opt := NewAdam(0.005)
	var loss float64
	for epoch := 0; epoch < 600; epoch++ {
		batch := make([]mat.Vec, 16)
		for i := range batch {
			batch[i] = sample()
		}
		loss = ae.TrainBatch(batch, opt, 10)
	}
	if loss > 0.02 {
		t.Fatalf("autoencoder failed to learn 2-D manifold, final loss %v", loss)
	}
	if code := ae.Enc.Layers[len(ae.Enc.Layers)-1].Out; code != 2 || ae.InDim() != 8 {
		t.Fatalf("dims: code=%d in=%d", code, ae.InDim())
	}
	x := sample()
	if rl := ae.ReconstructionLoss(x); rl > 0.05 {
		t.Fatalf("held-out reconstruction loss %v too high", rl)
	}
}

func TestAutoencoderEncodeGradCheck(t *testing.T) {
	rng := mat.NewRNG(13)
	ae := NewAutoencoder(4, []int{3, 2}, rng)
	x := mat.Vec{0.3, -0.2, 0.8, 0.1}
	target := mat.Vec{0.5, -0.5}

	lossFn := func() float64 {
		l, _ := MSE(ae.EncodeInfer(x), target)
		return l
	}

	params := ae.Enc.Params()
	ZeroGrads(params)
	code, back := ae.Encode(x)
	_, grad := MSE(code, target)
	back(grad)

	for _, p := range params {
		want := numericalGrad(p.Val, lossFn)
		for i := range want {
			if math.Abs(p.Grad[i]-want[i]) > 1e-5 {
				t.Fatalf("encoder %s grad[%d]: analytic %v numeric %v",
					p.Name, i, p.Grad[i], want[i])
			}
		}
	}
}

func TestMLPCopyWeights(t *testing.T) {
	rng := mat.NewRNG(14)
	a := NewMLP([]int{3, 4, 2}, []Activation{ELU, Identity}, rng)
	b := NewMLP([]int{3, 4, 2}, []Activation{ELU, Identity}, rng)
	x := mat.Vec{0.1, 0.2, 0.3}
	b.CopyWeightsFrom(a)
	ya := a.Infer(x)
	yb := b.Infer(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("CopyWeightsFrom did not make networks identical")
		}
	}
	if a.NumParams() != b.NumParams() {
		t.Fatal("param count mismatch")
	}
	// Check param counts: (3*4+4) + (4*2+2) = 26
	if a.NumParams() != 26 {
		t.Fatalf("NumParams: got %d want 26", a.NumParams())
	}
}

func TestConstructorPanics(t *testing.T) {
	rng := mat.NewRNG(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"DenseZeroIn", func() { NewDense(0, 1, Identity, rng) }},
		{"MLPOneSize", func() { NewMLP([]int{3}, nil, rng) }},
		{"MLPActMismatch", func() { NewMLP([]int{3, 2}, []Activation{}, rng) }},
		{"AdamZeroLR", func() { NewAdam(0) }},
		{"AEZeroIn", func() { NewAutoencoder(0, []int{2}, rng) }},
		{"AENoHidden", func() { NewAutoencoder(3, nil, rng) }},
		{"MSEMismatch", func() { MSE(mat.Vec{1}, mat.Vec{1, 2}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
