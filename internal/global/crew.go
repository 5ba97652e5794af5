package global

import (
	"runtime"
	"sync/atomic"
	"time"
)

// crew runs the phases of one training step on two cores: the calling
// goroutine and one helper goroutine claim a phase's tasks from one atomic
// word. The caller claims too, so it never waits for the helper to arrive —
// a helper that wakes late only loses its share of the work — and once no
// task is left to claim it waits only for tasks the helper has already
// claimed. Tasks of a phase write disjoint outputs and every task computes
// the same bits whichever goroutine runs it (DESIGN.md §7, "Train step on
// two cores"), so the result does not depend on the schedule.
//
// The helper starts with the first step that runs with GOMAXPROCS > 1. A
// parked goroutine takes about 70 µs to wake on the 2-vCPU VM this was
// measured on, a quarter of a step, so the agent wakes it half a training
// period ahead of each step (prewake); it then spins at most wakeSpin for the
// step to open. Between the phases of a step it spins at most helperSpin,
// and then parks until the next wake. close stops it; a later step starts a
// new one.
type crew struct {
	// word packs, from the high bits down, the phase generation, the
	// phase's task count, the number of tasks the helper has claimed from
	// the end and the number the caller has claimed from the front, 16
	// bits each. The two ends keep each worker on the same ranges step
	// after step, so the gradient a worker writes is the one it updates and
	// the weights and moments it updates stay in its cache.
	word atomic.Uint64
	// done counts the current phase's finished tasks.
	done atomic.Int32
	// body is the current phase's task body, called as body(worker, task)
	// with worker 0 for the caller and 1 for the helper. It is bound when
	// the network is built and is nil between phases, so a parked helper
	// holds nothing of the agent.
	body func(worker, task int)

	// active reports whether the step in progress has a helper; false
	// runs every phase inline.
	active bool
	// running reports whether a helper goroutine exists; sleeping whether
	// it is parked (or about to park) on wake.
	running  bool
	sleeping atomic.Bool
	quit     atomic.Bool
	wake     chan struct{}
	exited   chan struct{}

	// inline keeps every step on the caller (Agent.TrainInline). helped
	// counts the tasks the helper ran, so a test can tell that a split
	// really happened.
	inline bool
	helped atomic.Int64
}

// helperSpin bounds how long an idle helper looks for a next phase before
// it parks. It covers the serial stretches between the phases of one step,
// not the gap between steps: a helper spinning across that gap takes its
// core from the LSTM training rounds (§9). wakeSpin bounds the wait of a
// helper woken ahead of a step for that step to open.
const (
	helperSpin = 20 * time.Microsecond
	wakeSpin   = 200 * time.Microsecond
)

// prewake wakes a parked helper ahead of the next step, so that its wake-up
// latency passes while the caller is still deciding.
func (c *crew) prewake() {
	if c.running {
		c.wakeHelper()
	}
}

// begin opens a training step: with more than one P it starts the helper,
// or wakes it if it parked again since prewake.
func (c *crew) begin() {
	c.active = !c.inline && runtime.GOMAXPROCS(0) > 1
	if !c.active {
		return
	}
	if !c.running {
		c.running = true
		c.quit.Store(false)
		c.sleeping.Store(false)
		c.wake = make(chan struct{}, 1)
		c.exited = make(chan struct{})
		go c.help(c.wake, c.exited)
		return
	}
	c.wakeHelper()
}

func (c *crew) wakeHelper() {
	if c.sleeping.CompareAndSwap(true, false) {
		c.wake <- struct{}{}
	}
}

// run executes tasks 0..n-1 of body and returns when all have finished.
func (c *crew) run(body func(worker, task int), n int) {
	if c == nil || !c.active {
		for t := 0; t < n; t++ {
			body(0, t)
		}
		return
	}
	if n >= 1<<16 {
		panic("global: crew phase with 65536 or more tasks")
	}
	c.body = body
	c.done.Store(0)
	gen := c.word.Load()>>48 + 1
	c.word.Store(gen<<48 | uint64(n)<<32)
	c.wakeHelper() // in case it parked during the serial stretch before
	for {
		t := c.claim(0)
		if t < 0 {
			break
		}
		body(0, t)
		c.done.Add(1)
	}
	for spins := 0; c.done.Load() != int32(n); spins++ {
		if spins >= 64 {
			runtime.Gosched()
		}
	}
	c.body = nil
}

// claim takes the next unclaimed task of the current phase for worker — the
// caller from the front, the helper from the end — or returns -1 when none
// is left.
func (c *crew) claim(worker int) int {
	for {
		w := c.word.Load()
		n, back, front := int(w>>32&0xffff), int(w>>16&0xffff), int(w&0xffff)
		if front+back >= n {
			return -1
		}
		if worker == 0 && c.word.CompareAndSwap(w, w+1) {
			return front
		}
		if worker == 1 && c.word.CompareAndSwap(w, w+1<<16) {
			return n - 1 - back
		}
	}
}

func (c *crew) hasWork() bool {
	w := c.word.Load()
	return w&0xffff+w>>16&0xffff < w>>32&0xffff
}

// help is the helper goroutine: it claims tasks while there are any, spins
// briefly when there are none, and parks on wake until the next wake.
func (c *crew) help(wake <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	spin := helperSpin
	for !c.quit.Load() {
		if t := c.claim(1); t >= 0 {
			c.body(1, t)
			c.helped.Add(1)
			c.done.Add(1)
			spin = helperSpin
			continue
		}
		deadline := time.Now().Add(spin)
		for !c.hasWork() && !c.quit.Load() {
			if time.Now().After(deadline) {
				c.sleeping.Store(true)
				// Recheck after announcing the sleep: a phase published (or
				// a close) in between may have found the flag still clear
				// and sent no token.
				if (c.hasWork() || c.quit.Load()) && c.sleeping.CompareAndSwap(true, false) {
					break
				}
				<-wake
				spin = wakeSpin
				break
			}
			runtime.Gosched()
		}
	}
}

// close stops the helper, if one runs, and waits for it to exit.
func (c *crew) close() {
	if !c.running {
		return
	}
	c.running = false
	c.active = false
	c.quit.Store(true)
	c.wakeHelper()
	<-c.exited
}

// split reports whether the step in progress runs on two workers.
func (c *crew) split() bool { return c != nil && c.active }
