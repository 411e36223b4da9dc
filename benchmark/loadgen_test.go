package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when the test advances it; SleepUntil blocks
// until then.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	until time.Time
	wake  chan struct{}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(ctx context.Context, t time.Time) {
	c.mu.Lock()
	if !t.After(c.now) {
		c.mu.Unlock()
		return
	}
	w := fakeWaiter{until: t, wake: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.wake:
	case <-ctx.Done():
	}
}

// advance moves the clock and wakes every sleeper it passes.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.until.After(c.now) {
			kept = append(kept, w)
		} else {
			close(w.wake)
		}
	}
	c.waiters = kept
}

// waitForSleeper blocks until the generator is asleep on the clock.
func (c *fakeClock) waitForSleeper(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.waiters)
		c.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the generator never went to sleep on the clock")
}

// TestOpenLoopChargesStallFromDueTime stalls the first of five
// requests on a single connection until 100 ms. The generator keeps
// sending on schedule (every 10 ms) regardless, and every request
// queued behind the stall is charged from its due time: the one due at
// 40 ms completes at 100 ms with 60 ms of latency, not the ~0 ms its
// own service took.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var conn sync.Mutex // the single connection
	release := make(chan struct{})
	entered := make(chan int)
	send := func(ctx context.Context, i int) error {
		entered <- i
		conn.Lock()
		defer conn.Unlock()
		if i == 0 {
			<-release
		}
		return nil
	}

	const n, interval = 5, 10 * time.Millisecond
	var samples []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		samples = openLoop(context.Background(), clk, interval, n, send)
	}()
	if i := <-entered; i != 0 {
		t.Fatalf("request %d sent first, want 0", i)
	}
	for k := 1; k < n; k++ {
		clk.waitForSleeper(t)
		clk.advance(interval)
		if i := <-entered; i != k {
			t.Fatalf("request %d sent at %v, want %d", i, time.Duration(k)*interval, k)
		}
	}
	clk.advance(100*time.Millisecond - (n-1)*interval) // now at 100 ms
	close(release)
	<-done

	for i, s := range samples {
		due := time.Duration(i) * interval
		if s.due != due || s.sent != due {
			t.Errorf("request %d: due %v sent %v, want both %v", i, s.due, s.sent, due)
		}
		if got, want := s.done-s.due, 100*time.Millisecond-due; got != want {
			t.Errorf("request %d: latency %v, want %v", i, got, want)
		}
	}
	st := summarize(step{duration: n * interval, samples: samples})
	if st.lateMaxMS != 0 {
		t.Errorf("generator lateness %vms, want 0: it never waited on the stall", st.lateMaxMS)
	}
	if st.p50 != 80 {
		t.Errorf("p50 = %vms, want 80ms", st.p50)
	}
	if st.lastDoneMS != 100 {
		t.Errorf("last completion at %vms, want 100ms", st.lastDoneMS)
	}
}

func TestClosedLoopKeepsConnsBusy(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	send := func(ctx context.Context, i int) error {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	}
	samples := closedLoop(context.Background(), wallClock{}, 3, 30, 0, send)
	if len(samples) != 30 {
		t.Fatalf("%d samples, want 30", len(samples))
	}
	if peak > 3 {
		t.Errorf("%d requests in flight at once over 3 connections", peak)
	}
	for i, s := range samples {
		if s.done < s.sent {
			t.Errorf("request %d done before it was sent", i)
		}
	}
}

// TestClosedLoopStopsAtItsTime gives one caller requests that take 10 ms
// each on a fake clock and 35 ms to send them in: it sends at 0, 10, 20
// and 30 ms and no more, and returns only those samples.
func TestClosedLoopStopsAtItsTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	send := func(ctx context.Context, i int) error {
		clk.advance(10 * time.Millisecond)
		return nil
	}
	samples := closedLoop(context.Background(), clk, 1, 100, 35*time.Millisecond, send)
	if len(samples) != 4 {
		t.Fatalf("%d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if want := time.Duration(i) * 10 * time.Millisecond; s.sent != want || s.done != want+10*time.Millisecond {
			t.Errorf("request %d: sent %v done %v, want %v and %v", i, s.sent, s.done, want, want+10*time.Millisecond)
		}
	}
}
