// Package workpool provides the bounded-concurrency worker primitive
// shared by the batched scoring pipeline: ExplainBatch fans explanations
// out over it, and the score cache shards batch evaluations through it.
//
// The design follows errgroup-with-SetLimit: run n index-addressed jobs
// with at most `workers` goroutines and collect per-index errors.
// Workers write results into caller-owned, index-aligned slices, which
// keeps successful outputs byte-identical at any parallelism. Failure
// is fail-fast: the first error cancels the run's context and stops
// dispatching new jobs, so one poisoned job does not pay for the whole
// batch. Jobs handed out below the lowest failed index still run, so
// Each, whose jobs ignore their context, reports the same error as a
// sequential loop. Cooperative EachContext jobs see the cancellation
// and may cut themselves short; which error is reported then follows
// EachContext's rules. A job that panics fails with a *PanicError
// instead of crashing the process: on a pool goroutine, the panic would
// escape every recover its caller set up.
package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error of a job that panicked: the job's index, the
// value it panicked with, and the stack of the panicking goroutine. Its
// message omits the stack, so it can reach a client verbatim; log Stack
// where the error is reported.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("job %d panicked: %v", e.Index, e.Value) }

// run calls fn(ctx, i), turning a panic into the job's *PanicError.
func run(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Each runs fn(0), fn(1), ..., fn(n-1) with at most workers concurrent
// goroutines and returns the lowest-index job error (nil if every call
// succeeded). A panicking job's error is a *PanicError.
//
// With workers <= 1 the jobs run inline on the calling goroutine and
// Each short-circuits on the first error, exactly like a plain loop. In
// parallel mode the first error stops dispatch, so jobs not yet handed
// to a worker never start; jobs already in flight run to completion,
// and so does every job handed out below the lowest failed index.
func Each(n, workers int, fn func(i int) error) error {
	return EachContext(context.Background(), n, workers, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// EachContext is Each under a caller context: fn receives a context that
// is cancelled as soon as ctx is cancelled or any job returns an error,
// so cooperative jobs (and the scoring calls inside them) can abandon
// work the batch no longer needs. Dispatch stops at the first
// cancellation — a job that fails promptly leaves later indexes
// unstarted.
//
// The returned error is deterministic where determinism is possible: the
// lowest-index error that is not itself a cancellation is preferred
// (sibling jobs cut short by fail-fast report context.Canceled, which
// must not mask the root cause). When every recorded error is
// cancellation-classed, the caller context's error wins — a cancelled
// batch reports ctx.Err() verbatim — and failing that, the job error
// that triggered the fail-fast is reported, so a root cause that merely
// wraps a context error (a model's own RPC timeout, say) still
// surfaces.
func EachContext(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	jobs := make(chan int)
	// rootErr remembers the job error that triggered the fail-fast
	// cancellation: if that error itself wraps a context error (an
	// RPC-backed model's own timeout, say), the classification scan below
	// would lump it in with the sibling cancellations it caused and mask
	// the root cause.
	var rootOnce sync.Once
	var rootErr error
	// lowFail is the lowest index whose job has failed (n while none has),
	// lowered before the fail-fast cancel so no worker can skip a job
	// below it: that job's error may be the one to report.
	var lowFail atomic.Int64
	lowFail.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A job can be handed out in the same instant the batch is
				// cancelled (the dispatch select has both cases ready);
				// record the cancellation instead of running it — unless
				// only a higher-index failure cancelled it, since its own
				// error would then be the lowest.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if int64(i) > lowFail.Load() {
					errs[i] = context.Canceled
					continue
				}
				if errs[i] = run(inner, i, fn); errs[i] != nil {
					for low := lowFail.Load(); int64(i) < low; low = lowFail.Load() {
						if lowFail.CompareAndSwap(low, int64(i)) {
							break
						}
					}
					rootOnce.Do(func() { rootErr = errs[i]; cancel() })
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-inner.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Every recorded error is cancellation-classed and the caller's
	// context is live: the failure originated inside a job. Report the
	// error that started the fail-fast, not a sibling's induced
	// cancellation.
	return rootErr
}
