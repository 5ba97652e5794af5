package rl

import (
	"math"
	"testing"
	"testing/quick"

	"hierdrl/internal/mat"
)

func TestDiscountAndGain(t *testing.T) {
	if got := DiscountFactor(0.5, 0); got != 1 {
		t.Fatalf("DiscountFactor(0.5,0) = %v want 1", got)
	}
	if got := DiscountFactor(0.5, 2); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("DiscountFactor(0.5,2) = %v want e^-1", got)
	}
	// Gain for beta->0 approaches tau.
	if got := SojournGain(0, 7); math.Abs(got-7) > 1e-12 {
		t.Fatalf("SojournGain(0,7) = %v want 7", got)
	}
	if got := SojournGain(0.5, 2); math.Abs(got-(1-math.Exp(-1))/0.5) > 1e-12 {
		t.Fatalf("SojournGain(0.5,2) = %v", got)
	}
}

func TestSMDPTargetReducesToDiscreteQ(t *testing.T) {
	// For tau -> 0 the target approaches nextBest; for tau -> inf it
	// approaches rRate/beta (the value of earning rRate forever).
	if got := SMDPTarget(0.5, 1e-12, 3, 10); math.Abs(got-10) > 1e-6 {
		t.Fatalf("short-sojourn target %v want ~10", got)
	}
	if got := SMDPTarget(0.5, 1e9, 3, 10); math.Abs(got-6) > 1e-6 {
		t.Fatalf("long-sojourn target %v want ~6", got)
	}
}

func TestNegativeSojournPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"DiscountFactor": func() { DiscountFactor(0.5, -1) },
		"SojournGain":    func() { SojournGain(0.5, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestQTableBasics(t *testing.T) {
	q := NewQTable(2, 3, 0.5, 0.5, 0)
	if q.NumStates() != 2 || q.nActions != 3 {
		t.Fatalf("NumStates %d actions %d", q.NumStates(), q.nActions)
	}
	if got := q.row(0)[1]; got != 0 {
		t.Fatalf("fresh Q = %v want 0", got)
	}
	a, v := q.Best(0)
	if a != 0 || v != 0 {
		t.Fatalf("fresh Best = (%d,%v)", a, v)
	}
	q.Update(0, 1, 10, 1, 1)
	if q.row(0)[1] <= 0 {
		t.Fatal("positive reward must raise Q")
	}
	a, _ = q.Best(0)
	if a != 1 {
		t.Fatalf("Best after positive update = %d want 1", a)
	}
	if q.visits[0*3+1] != 1 || q.visits[1*3+1] != 0 {
		t.Fatalf("visits = %d, %d want 1, 0", q.visits[0*3+1], q.visits[1*3+1])
	}
	if a, v := q.Best(1); a != 0 || v != 0 {
		t.Fatalf("an update of state 0 moved state 1: Best = (%d,%v)", a, v)
	}
}

func TestQTableOptimisticInit(t *testing.T) {
	q := NewQTable(3, 2, 0.5, 0.5, 5)
	for s := 0; s < 3; s++ {
		if got := q.row(s)[1]; got != 5 {
			t.Fatalf("optimistic init of state %d = %v want 5", s, got)
		}
	}
}

// A one-state SMDP with known optimal policy: in state idle action 1 earns
// rate 1 and returns to idle after tau=1; action 0 earns rate 0. The agent
// must learn Q(idle,1) > Q(idle,0).
func TestQTableLearnsSimpleSMDP(t *testing.T) {
	const idle = 0
	q := NewQTable(1, 2, 0.2, 0.5, 0)
	rng := mat.NewRNG(1)
	pol := NewEpsilonGreedy(0.3, 0.05, 0.999, rng)
	for i := 0; i < 3000; i++ {
		best, _ := q.Best(idle)
		a := pol.SelectAction(2, best)
		rate := 0.0
		if a == 1 {
			rate = 1.0
		}
		q.Update(idle, a, rate, 1, idle)
	}
	if q.row(idle)[1] <= q.row(idle)[0] {
		t.Fatalf("failed to learn: Q1=%v Q0=%v", q.row(idle)[1], q.row(idle)[0])
	}
	// The fixed point of always taking action 1:
	// Q = g + d*Q with g=(1-e^-0.5)/0.5, d=e^-0.5 => Q = g/(1-d) ≈ 2.0
	want := SojournGain(0.5, 1) / (1 - DiscountFactor(0.5, 1))
	if math.Abs(q.row(idle)[1]-want) > 0.3 {
		t.Fatalf("Q(idle,1)=%v want ~%v", q.row(idle)[1], want)
	}
}

// Property: with alpha=1 a single update sets Q exactly to the target.
func TestQTableFullLearningRateProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		q := NewQTable(5, 4, 1, 0.5, 0)
		state := g.Intn(5)
		next := g.Intn(5)
		a := g.Intn(4)
		rate := g.Normal(0, 10)
		tau := g.Float64() * 100
		_, nextBest := q.Best(next)
		want := SMDPTarget(0.5, tau, rate, nextBest)
		q.Update(state, a, rate, tau, next)
		return math.Abs(q.row(state)[a]-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQTableActionRangePanics(t *testing.T) {
	q := NewQTable(2, 2, 0.5, 0.5, 0)
	for i, fn := range []func(){
		func() { q.Update(0, 2, 1, 1, 0) },
		func() { q.Update(0, -1, 1, 1, 0) },
		func() { q.Update(2, 0, 1, 1, 0) },
		func() { q.Best(-1) },
		func() { q.Update(0, 0, 1, 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: out-of-range state or action should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEpsilonGreedyExploresAndExploits(t *testing.T) {
	rng := mat.NewRNG(2)
	pol := NewEpsilonGreedy(1, 0, 1, rng) // pure exploration
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[pol.SelectAction(4, 0)]++
	}
	for a, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("pure exploration non-uniform: action %d count %d", a, c)
		}
	}

	pol.SetEpsilon(0) // pure exploitation
	for i := 0; i < 100; i++ {
		if got := pol.SelectAction(4, 2); got != 2 {
			t.Fatalf("pure exploitation chose %d", got)
		}
	}
}

func TestEpsilonGreedyDecay(t *testing.T) {
	rng := mat.NewRNG(3)
	pol := NewEpsilonGreedy(1, 0.1, 0.5, rng)
	for i := 0; i < 10; i++ {
		pol.SelectAction(2, 0)
	}
	if pol.Epsilon() != 0.1 {
		t.Fatalf("epsilon after decay = %v want floor 0.1", pol.Epsilon())
	}
}

func TestEpsilonGreedyValidation(t *testing.T) {
	rng := mat.NewRNG(4)
	cases := []func(){
		func() { NewEpsilonGreedy(-0.1, 0, 1, rng) },
		func() { NewEpsilonGreedy(0.5, 0.6, 1, rng) },
		func() { NewEpsilonGreedy(0.5, 0.1, 0, rng) },
		func() { NewEpsilonGreedy(0.5, 0.1, 1.5, rng) },
		func() { NewEpsilonGreedy(0.5, 0.1, 1, rng).SelectAction(0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestReplayRingSemantics(t *testing.T) {
	r := NewReplay[int](3)
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh replay Len=%d Cap=%d", r.Len(), r.Cap())
	}
	push(r, 1)
	push(r, 2)
	if r.Latest() != 2 {
		t.Fatalf("Latest = %d want 2", r.Latest())
	}
	push(r, 3)
	push(r, 4) // evicts 1
	if r.Len() != 3 {
		t.Fatalf("Len after overflow = %d want 3", r.Len())
	}
	want := []int{4, 2, 3} // slot order: 4 took the oldest slot
	for i := range want {
		if r.At(i) != want[i] {
			t.Fatalf("slot %d holds %d, want %d", i, r.At(i), want[i])
		}
	}
	if r.Latest() != 4 {
		t.Fatalf("Latest = %d want 4", r.Latest())
	}
}

func TestReplaySampleUniform(t *testing.T) {
	r := NewReplay[int](8)
	for i := 0; i < 8; i++ {
		push(r, i)
	}
	rng := mat.NewRNG(5)
	counts := make([]int, 8)
	for _, i := range r.SampleIndicesInto(nil, 8000, rng) {
		counts[r.At(i)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("sample count for %d = %d, not ~1000", v, c)
		}
	}
}

func TestReplayPanics(t *testing.T) {
	rng := mat.NewRNG(6)
	for name, fn := range map[string]func(){
		"ZeroCap":     func() { NewReplay[int](0) },
		"EmptySample": func() { NewReplay[int](4).SampleIndicesInto(nil, 1, rng) },
		"EmptyLatest": func() { NewReplay[int](4).Latest() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestRewardIntegratorConstantRate(t *testing.T) {
	ri := NewRewardIntegrator(0.5)
	ri.Reset(10, 3)
	rEq, tau := ri.EquivalentRate(14)
	if math.Abs(tau-4) > 1e-12 {
		t.Fatalf("tau = %v want 4", tau)
	}
	// Constant rate in == constant rate out.
	if math.Abs(rEq-3) > 1e-9 {
		t.Fatalf("rEq = %v want 3", rEq)
	}
	// Exact integral: 3*(1-e^{-2})/0.5
	want := 3 * (1 - math.Exp(-2)) / 0.5
	if got := integral(ri, 14); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Integral = %v want %v", got, want)
	}
}

func TestRewardIntegratorPiecewise(t *testing.T) {
	// Rate 2 on [0,1), rate 5 on [1,3). Closed form:
	// I = 2*(1-e^{-b})/b + 5*e^{-b}*(1-e^{-2b})/b with b=0.5
	b := 0.5
	ri := NewRewardIntegrator(b)
	ri.Reset(0, 2)
	ri.SetRate(1, 5)
	got := integral(ri, 3)
	want := 2*(1-math.Exp(-b))/b + 5*math.Exp(-b)*(1-math.Exp(-2*b))/b
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("piecewise integral = %v want %v", got, want)
	}
	// EquivalentRate must reproduce the integral through SojournGain.
	rEq, tau := ri.EquivalentRate(3)
	if math.Abs(SojournGain(b, tau)*rEq-want) > 1e-9 {
		t.Fatal("EquivalentRate does not reproduce the exact integral")
	}
}

func TestRewardIntegratorZeroBeta(t *testing.T) {
	ri := NewRewardIntegrator(0)
	ri.Reset(0, 2)
	ri.SetRate(1, 4)
	if got := integral(ri, 2); math.Abs(got-6) > 1e-12 {
		t.Fatalf("undiscounted integral = %v want 6", got)
	}
}

func TestRewardIntegratorEmptySojourn(t *testing.T) {
	ri := NewRewardIntegrator(0.5)
	ri.Reset(5, 7)
	rEq, tau := ri.EquivalentRate(5)
	if tau != 0 || rEq != 7 {
		t.Fatalf("empty sojourn: got (%v,%v) want (7,0)", rEq, tau)
	}
}

func TestRewardIntegratorGuards(t *testing.T) {
	cases := map[string]func(){
		"NegativeBeta": func() { NewRewardIntegrator(-1) },
		"UseBeforeReset": func() {
			NewRewardIntegrator(0.5).SetRate(1, 1)
		},
		"TimeBackwards": func() {
			ri := NewRewardIntegrator(0.5)
			ri.Reset(10, 1)
			ri.SetRate(5, 2)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// Property: for any piecewise-constant rate profile, the equivalent-rate
// identity SojournGain(beta,tau)*rEq == exact integral holds.
func TestRewardIntegratorEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		beta := g.Float64() * 2
		ri := NewRewardIntegrator(beta)
		t0 := g.Float64() * 100
		ri.Reset(t0, g.Normal(0, 5))
		tNow := t0
		// Reference numerical integral via fine sampling.
		type piece struct{ start, rate float64 }
		pieces := []piece{{t0, ri.rate}}
		for k := 0; k < 1+g.Intn(6); k++ {
			tNow += g.Float64() * 10
			rate := g.Normal(0, 5)
			ri.SetRate(tNow, rate)
			pieces = append(pieces, piece{tNow, rate})
		}
		tEnd := tNow + g.Float64()*10
		rEq, tau := ri.EquivalentRate(tEnd)

		// Closed-form exact integral over pieces.
		var exact float64
		for i, p := range pieces {
			end := tEnd
			if i+1 < len(pieces) {
				end = pieces[i+1].start
			}
			if end <= p.start {
				continue
			}
			if beta <= 1e-12 {
				exact += p.rate * (end - p.start)
			} else {
				exact += p.rate * (math.Exp(-beta*(p.start-t0)) - math.Exp(-beta*(end-t0))) / beta
			}
		}
		return math.Abs(SojournGain(beta, tau)*rEq-exact) < 1e-6*(1+math.Abs(exact))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQTableConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewQTable(0, 2, 0.5, 0.5, 0) },
		func() { NewQTable(2, 0, 0.5, 0.5, 0) },
		func() { NewQTable(2, 2, 0, 0.5, 0) },
		func() { NewQTable(2, 2, 1.5, 0.5, 0) },
		func() { NewQTable(2, 2, 0.5, 0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// An in-place emplace (NextSlot, then CommitSlot) adds a transition to the
// ring: the write is invisible until the commit, and once the ring is full
// NextSlot hands out the oldest transition's slot, contents and all, so the
// caller can reuse its memory.
func TestReplayEmplaceMatchesAdd(t *testing.T) {
	r := NewReplay[[]int](4)
	for i := 0; i < 11; i++ {
		slot := r.NextSlot()
		if i >= 4 && (*slot)[0] != i-4 {
			t.Fatalf("add %d: NextSlot holds %v, want the oldest transition [%d]", i, *slot, i-4)
		}
		*slot = append((*slot)[:0], i)
		if want := min(i, 4); r.Len() != want {
			t.Fatalf("add %d: Len %d before the commit, want %d", i, r.Len(), want)
		}
		r.CommitSlot()
		if r.Latest()[0] != i || r.At(r.Newest())[0] != i || r.Len() != min(i+1, 4) {
			t.Fatalf("add %d: Latest %v, Len %d", i, r.Latest(), r.Len())
		}
	}
	for i := 0; i < 4; i++ {
		if want := []int{8, 9, 10, 7}[i]; r.At(i)[0] != want {
			t.Fatalf("slot %d holds %v, want [%d]", i, r.At(i), want)
		}
	}
}

// SampleIndicesInto appends n sample indices to dst, each one draw of
// Intn(Len) in order (the RNG stream every replay's minibatches follow).
func TestSampleIndicesIntoMatchesSampleIndices(t *testing.T) {
	r := NewReplay[int](32)
	for i := 0; i < 20; i++ {
		push(r, i)
	}
	ref := mat.NewRNG(7)
	rng := mat.NewRNG(7)
	scratch := []int{-1}
	got := r.SampleIndicesInto(scratch, 16, rng)
	if len(got) != 17 || got[0] != -1 {
		t.Fatalf("SampleIndicesInto did not append to dst: %v", got)
	}
	for i, x := range got[1:] {
		if want := ref.Intn(20); x != want {
			t.Fatalf("index %d: %d, want %d", i, x, want)
		}
	}
}

// push adds x to r through NextSlot and CommitSlot.
func push[T any](r *Replay[T], x T) {
	*r.NextSlot() = x
	r.CommitSlot()
}

// integral advances ri to t and returns the discounted integral so far.
func integral(ri *RewardIntegrator, t float64) float64 {
	ri.advance(t)
	return ri.integral
}
