package hierdrl

import (
	"runtime"
	"sync"
)

// runParallel executes every task with at most GOMAXPROCS running at once
// (errgroup-style, but dependency-free). All tasks run to completion even
// when one fails; the error returned is the failing task with the lowest
// index, so error selection is deterministic regardless of scheduling.
//
// Tasks must be independent: each experiment run owns its RNG chain
// (seeded from its config), its cluster, and its collector, and shares only
// immutable inputs (the trace), so concurrent runs produce bitwise the same
// results as sequential ones.
func runParallel(tasks []func() error) error {
	errs := make([]error, len(tasks))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			errs[i] = task()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
