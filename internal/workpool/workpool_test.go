package workpool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		n := 100
		hit := make([]int32, n)
		err := Each(n, workers, func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestEachZeroJobs(t *testing.T) {
	if err := Each(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestEachReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := Each(50, workers, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("workers=%d: err = %v, want job 7 failed", workers, err)
		}
	}
}

func TestEachSequentialShortCircuits(t *testing.T) {
	ran := 0
	err := Each(10, 1, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran != 4 {
		t.Fatalf("sequential mode ran %d jobs after error, want 4", ran)
	}
}

// Regression test: parallel Each used to attempt every remaining job
// after an index failed. A poisoned job at index 0 must now cancel the
// batch before jobs beyond the in-flight window start. (Each routes
// through EachContext; the test drives EachContext directly so the
// non-poisoned jobs can park on the fail-fast cancellation itself,
// which is guaranteed to arrive, rather than on test state.)
func TestEachFailFastLeavesLaterJobsUnstarted(t *testing.T) {
	const n, workers = 1000, 4
	var started atomic.Int32
	err := EachContext(context.Background(), n, workers, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("poisoned")
		}
		<-ctx.Done() // park until the poisoned job's failure cancels the batch
		return nil
	})
	if err == nil || err.Error() != "poisoned" {
		t.Fatalf("err = %v, want poisoned", err)
	}
	// At most the initial in-flight window, plus one racy dequeue per
	// other worker whose inner.Err() pre-check ran before the
	// cancellation landed; a worker resumed by ctx.Done() always sees
	// the cancellation on its next dequeue. Without fail-fast all 1000
	// jobs would run.
	if got := started.Load(); got >= 2*workers {
		t.Fatalf("%d jobs started after index 0 failed, want < %d", got, 2*workers)
	}
}

func TestEachContextCancelStopsDispatchAndReturnsCtxErr(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := EachContext(ctx, 100, workers, func(c context.Context, i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
				return c.Err()
			}
			<-c.Done() // park until the cancellation lands
			return c.Err()
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d jobs ran after cancellation, want at most %d", workers, got, workers)
		}
	}
}

func TestEachContextPreExpiredContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := EachContext(ctx, 10, 4, func(context.Context, int) error {
		t.Error("job ran under an expired context")
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A sibling cancelled by fail-fast must not mask the root-cause error,
// even when the cancelled job sits at a lower index.
func TestEachContextCancellationDoesNotMaskRootCause(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	err := EachContext(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			defer close(failed)
			return boom
		}
		<-failed
		<-ctx.Done() // observe the fail-fast cancellation
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// A root-cause error that itself wraps a context error (a model's own
// RPC timeout, say) must not be masked by the sibling cancellations it
// triggers.
func TestEachContextRootCauseWrappingCtxErrorSurfaces(t *testing.T) {
	rpcErr := fmt.Errorf("rpc call: %w", context.DeadlineExceeded)
	err := EachContext(context.Background(), 8, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			return rpcErr
		}
		<-ctx.Done() // induced cancellations must not win
		return ctx.Err()
	})
	if !errors.Is(err, rpcErr) {
		t.Fatalf("err = %v, want the root-cause rpc error", err)
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	cur, peak := 0, 0
	err := Each(64, workers, func(int) error {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		mu.Lock()
		cur--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", peak, workers)
	}
}

// A job's panic becomes that job's error — a *PanicError carrying the
// index, the value and the stack — on the inline path and on worker
// goroutines alike, instead of crashing the process.
func TestEachPanicBecomesJobError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Each(8, workers, func(i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Index != 3 || pe.Value != "boom" || err.Error() != "job 3 panicked: boom" {
			t.Fatalf("workers=%d: PanicError{Index: %d, Value: %v} reads %q", workers, pe.Index, pe.Value, err)
		}
		if !strings.Contains(string(pe.Stack), "TestEachPanicBecomesJobError") {
			t.Fatalf("workers=%d: stack does not show the panicking job:\n%s", workers, pe.Stack)
		}
	}
}

// A panic obeys the lowest-index rule like any other job error, whichever
// of the two failing jobs panics.
func TestEachPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := Each(50, workers, func(i int) error {
			switch i {
			case 7:
				panic("job 7 bug")
			case 31:
				return errors.New("job 31 failed")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 7 {
			t.Fatalf("workers=%d: err = %v, want job 7's panic", workers, err)
		}
		err = Each(50, workers, func(i int) error {
			switch i {
			case 7:
				return errors.New("job 7 failed")
			case 31:
				panic("job 31 bug")
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("workers=%d: err = %v, want job 7 failed", workers, err)
		}
	}
}
