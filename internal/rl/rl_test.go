package rl

import (
	"fmt"
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
	q := NewQTable(3, 0.5, 0.5, 0)
	if q.NumActions() != 3 {
		t.Fatalf("NumActions %d", q.NumActions())
	}
	if got := q.Q("s", 1); got != 0 {
		t.Fatalf("fresh Q = %v want 0", got)
	}
	a, v := q.Best("s")
	if a != 0 || v != 0 {
		t.Fatalf("fresh Best = (%d,%v)", a, v)
	}
	q.Update("s", 1, 10, 1, "s2")
	if q.Q("s", 1) <= 0 {
		t.Fatal("positive reward must raise Q")
	}
	a, _ = q.Best("s")
	if a != 1 {
		t.Fatalf("Best after positive update = %d want 1", a)
	}
	if q.Visits("s", 1) != 1 {
		t.Fatalf("Visits = %d want 1", q.Visits("s", 1))
	}
	if q.States() != 2 { // "s" and "s2"
		t.Fatalf("States = %d want 2", q.States())
	}
}

func TestQTableOptimisticInit(t *testing.T) {
	q := NewQTable(2, 0.5, 0.5, 5)
	if got := q.Q("s", 0); got != 5 {
		t.Fatalf("optimistic init = %v want 5", got)
	}
}

// A two-state SMDP with known optimal policy: in state "idle" action 1 earns
// rate 1 and returns to "idle" after tau=1; action 0 earns rate 0. The agent
// must learn Q(idle,1) > Q(idle,0).
func TestQTableLearnsSimpleSMDP(t *testing.T) {
	q := NewQTable(2, 0.2, 0.5, 0)
	rng := mat.NewRNG(1)
	pol := NewEpsilonGreedy(0.3, 0.05, 0.999, rng)
	for i := 0; i < 3000; i++ {
		a := pol.Select(2, func() int { b, _ := q.Best("idle"); return b })
		rate := 0.0
		if a == 1 {
			rate = 1.0
		}
		q.Update("idle", a, rate, 1, "idle")
	}
	if q.Q("idle", 1) <= q.Q("idle", 0) {
		t.Fatalf("failed to learn: Q1=%v Q0=%v", q.Q("idle", 1), q.Q("idle", 0))
	}
	// The fixed point of always taking action 1:
	// Q = g + d*Q with g=(1-e^-0.5)/0.5, d=e^-0.5 => Q = g/(1-d) ≈ 2.0
	want := SojournGain(0.5, 1) / (1 - DiscountFactor(0.5, 1))
	if math.Abs(q.Q("idle", 1)-want) > 0.3 {
		t.Fatalf("Q(idle,1)=%v want ~%v", q.Q("idle", 1), want)
	}
}

func TestQTableUpdateTerminal(t *testing.T) {
	q := NewQTable(1, 1, 0.5, 0)
	q.UpdateTerminal("s", 0, 2, 1)
	want := SojournGain(0.5, 1) * 2
	if math.Abs(q.Q("s", 0)-want) > 1e-12 {
		t.Fatalf("terminal update: got %v want %v", q.Q("s", 0), want)
	}
}

// Property: with alpha=1 a single update sets Q exactly to the target.
func TestQTableFullLearningRateProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		q := NewQTable(4, 1, 0.5, 0)
		state := fmt.Sprintf("s%d", g.Intn(5))
		next := fmt.Sprintf("s%d", g.Intn(5))
		a := g.Intn(4)
		rate := g.Normal(0, 10)
		tau := g.Float64() * 100
		_, nextBest := q.Best(next)
		want := SMDPTarget(0.5, tau, rate, nextBest)
		q.Update(state, a, rate, tau, next)
		return math.Abs(q.Q(state, a)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQTableActionRangePanics(t *testing.T) {
	q := NewQTable(2, 0.5, 0.5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range action should panic")
		}
	}()
	q.Q("s", 2)
}

func TestEpsilonGreedyExploresAndExploits(t *testing.T) {
	rng := mat.NewRNG(2)
	pol := NewEpsilonGreedy(1, 0, 1, rng) // pure exploration
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[pol.Select(4, func() int { return 0 })]++
	}
	for a, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("pure exploration non-uniform: action %d count %d", a, c)
		}
	}

	pol.SetEpsilon(0) // pure exploitation
	for i := 0; i < 100; i++ {
		if got := pol.Select(4, func() int { return 2 }); got != 2 {
			t.Fatalf("pure exploitation chose %d", got)
		}
	}
}

func TestEpsilonGreedyDecay(t *testing.T) {
	rng := mat.NewRNG(3)
	pol := NewEpsilonGreedy(1, 0.1, 0.5, rng)
	for i := 0; i < 10; i++ {
		pol.Select(2, func() int { return 0 })
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
		func() { NewEpsilonGreedy(0.5, 0.1, 1, rng).Select(0, func() int { return 0 }) },
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
	r.Add(1)
	r.Add(2)
	if r.Latest() != 2 {
		t.Fatalf("Latest = %d want 2", r.Latest())
	}
	r.Add(3)
	r.Add(4) // evicts 1
	if r.Len() != 3 {
		t.Fatalf("Len after overflow = %d want 3", r.Len())
	}
	var got []int
	r.Each(func(x int) { got = append(got, x) })
	want := []int{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order: got %v want %v", got, want)
		}
	}
	if r.Latest() != 4 {
		t.Fatalf("Latest = %d want 4", r.Latest())
	}
}

func TestReplaySampleUniform(t *testing.T) {
	r := NewReplay[int](8)
	for i := 0; i < 8; i++ {
		r.Add(i)
	}
	rng := mat.NewRNG(5)
	counts := make([]int, 8)
	for _, v := range r.Sample(8000, rng) {
		counts[v]++
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
		"EmptySample": func() { NewReplay[int](4).Sample(1, rng) },
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
	if got := ri.Integral(14); math.Abs(got-want) > 1e-9 {
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
	got := ri.Integral(3)
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
	if got := ri.Integral(2); math.Abs(got-6) > 1e-12 {
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
		pieces := []piece{{t0, ri.Rate()}}
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
		func() { NewQTable(0, 0.5, 0.5, 0) },
		func() { NewQTable(2, 0, 0.5, 0) },
		func() { NewQTable(2, 1.5, 0.5, 0) },
		func() { NewQTable(2, 0.5, 0, 0) },
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

// NextSlot/CommitSlot must behave exactly like Add — same ordering, same
// eviction — while letting callers reuse slot memory.
func TestReplayEmplaceMatchesAdd(t *testing.T) {
	ra := NewReplay[int](4)
	rb := NewReplay[int](4)
	for i := 0; i < 11; i++ {
		ra.Add(i)
		slot := rb.NextSlot()
		*slot = i
		rb.CommitSlot()
		if ra.Len() != rb.Len() {
			t.Fatalf("len diverged: %d vs %d", ra.Len(), rb.Len())
		}
	}
	for i := 0; i < ra.Len(); i++ {
		if ra.At(i) != rb.At(i) {
			t.Fatalf("slot %d: %d vs %d", i, ra.At(i), rb.At(i))
		}
	}
	if ra.Latest() != rb.Latest() || ra.Newest() != rb.Newest() {
		t.Fatalf("latest: %d (slot %d) vs %d (slot %d)", ra.Latest(), ra.Newest(), rb.Latest(), rb.Newest())
	}
}

// SampleIndicesInto must consume the RNG identically to SampleIndices.
func TestSampleIndicesIntoMatchesSampleIndices(t *testing.T) {
	r := NewReplay[int](32)
	for i := 0; i < 20; i++ {
		r.Add(i)
	}
	a := r.SampleIndices(16, mat.NewRNG(7))
	scratch := make([]int, 0, 16)
	b := r.SampleIndicesInto(scratch[:0], 16, mat.NewRNG(7))
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// SelectAction must consume the RNG identically to Select with a constant
// greedy callback, including epsilon decay.
func TestSelectActionMatchesSelect(t *testing.T) {
	pa := NewEpsilonGreedy(0.5, 0.01, 0.99, mat.NewRNG(3))
	pb := NewEpsilonGreedy(0.5, 0.01, 0.99, mat.NewRNG(3))
	for i := 0; i < 200; i++ {
		best := i % 7
		a := pa.Select(7, func() int { return best })
		b := pb.SelectAction(7, best)
		if a != b {
			t.Fatalf("step %d: Select %d != SelectAction %d", i, a, b)
		}
		if pa.Epsilon() != pb.Epsilon() {
			t.Fatalf("step %d: epsilon diverged %v vs %v", i, pa.Epsilon(), pb.Epsilon())
		}
	}
}
