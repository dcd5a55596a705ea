package ml

import (
	"context"
	"runtime"
	"sync"
)

// EffectiveJobs resolves a Jobs setting against a task count: jobs <= 0
// means "use every core" (GOMAXPROCS), and the pool never exceeds the
// number of tasks.
func EffectiveJobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// ParallelFor runs fn(0) .. fn(n-1) on a worker pool of at most jobs
// goroutines (jobs <= 0 uses GOMAXPROCS) and returns the error of the
// lowest failing index — the same error a sequential loop would have
// returned first. With jobs == 1 the loop runs inline on the calling
// goroutine.
//
// Determinism contract: fn must derive any randomness from state
// pre-split per index *before* the call, never from a generator shared
// across indexes; then results are independent of scheduling order.
func ParallelFor(n, jobs int, fn func(i int) error) error {
	return ParallelForCtx(context.Background(), n, jobs, fn)
}

// ParallelForCtx is ParallelFor with cancellation. When ctx is canceled the
// dispatcher stops handing out new indexes, already-running calls finish,
// and the pool drains cleanly before the function returns.
//
// Error priority keeps the first-error-wins rule: a real error from the
// lowest failing index beats the context error (exactly what a sequential
// loop that checks ctx between iterations would have returned first);
// a run that was cut short only by cancellation returns ctx.Err(). Both
// paths check ctx once more after the last call, so a cancellation that
// lands while the final index runs is still reported, never a silent nil.
func ParallelForCtx(ctx context.Context, n, jobs int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	jobs = EffectiveJobs(jobs, n)
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					// Drain without running: the run is already doomed,
					// but the dispatcher may still be blocked on send.
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// First-error-wins: report the lowest failing index, matching the
	// sequential loop.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
