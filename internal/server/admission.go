package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"
)

// errOverloaded is returned by admission.acquire when both the in-flight
// limit and the queue are full; handlers translate it into 429 with a
// Retry-After estimate.
var errOverloaded = errors.New("server: overloaded (in-flight limit and queue full)")

// ticket is one queued computation waiting for an in-flight slot.
type ticket struct {
	ready chan struct{} // closed when a slot is handed to this ticket
}

// admission is the server's admission controller: at most max
// explanations compute concurrently, at most maxQueue more wait in a
// FIFO queue, and everything beyond that is rejected immediately so
// overload turns into fast 429s instead of unbounded latency. Slots are
// handed to queued tickets in arrival order (fair FIFO dispatch):
// release passes the slot directly to the head waiter, so a burst of
// arrivals cannot starve an early one.
//
// The controller also keeps an exponentially-weighted moving average of
// explanation latency, which prices the Retry-After hint on rejections.
type admission struct {
	mu       sync.Mutex
	max      int
	maxQueue int
	inflight int
	queue    []*ticket
	// highWater is the deepest the queue has ever been — the signal
	// (exported as certa_admission_queue_high_water) that MaxQueue is
	// sized too tight even when the instantaneous depth looks calm.
	highWater int
	ewmaMS    float64
}

// newAdmission builds the controller; callers pass already-defaulted
// bounds (Options.withDefaults), both ≥ 1.
func newAdmission(max, maxQueue int) *admission {
	return &admission{max: max, maxQueue: maxQueue}
}

// acquire blocks until an in-flight slot is granted, the queue overflows
// (errOverloaded) or ctx is cancelled (ctx.Err()). Callers that receive
// nil must call release exactly once.
func (a *admission) acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.inflight < a.max {
		a.inflight++
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return errOverloaded
	}
	t := &ticket{ready: make(chan struct{})}
	a.queue = append(a.queue, t)
	if len(a.queue) > a.highWater {
		a.highWater = len(a.queue)
	}
	a.mu.Unlock()

	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
	}
	// Cancelled while queued — but release may have handed us the slot in
	// the same instant. Settle under the lock: if the slot arrived, pass
	// it on (or free it); otherwise leave the queue, so dead tickets
	// don't occupy capacity and cause spurious 429s.
	a.mu.Lock()
	select {
	case <-t.ready:
		a.releaseLocked()
		a.mu.Unlock()
		return ctx.Err()
	default:
	}
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
	return ctx.Err()
}

// release returns an in-flight slot, handing it to the oldest live
// queued ticket if any.
func (a *admission) release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admission) releaseLocked() {
	// A cancelled waiter removes its own ticket under the lock, so every
	// queued ticket is live.
	if len(a.queue) > 0 {
		t := a.queue[0]
		a.queue = a.queue[1:]
		close(t.ready) // slot transfers; inflight count unchanged
		return
	}
	a.inflight--
}

// observe folds one completed explanation's latency into the EWMA.
func (a *admission) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	a.mu.Lock()
	if a.ewmaMS == 0 {
		a.ewmaMS = ms
	} else {
		const alpha = 0.2
		a.ewmaMS = alpha*ms + (1-alpha)*a.ewmaMS
	}
	a.mu.Unlock()
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the time for the current queue (plus itself) to drain through the
// in-flight slots at the observed per-explanation latency, at least 1s.
func (a *admission) retryAfterSeconds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ewma := a.ewmaMS
	if ewma == 0 {
		ewma = 1000 // no completions observed yet; guess a second
	}
	secs := int(math.Ceil(float64(len(a.queue)+1) * ewma / float64(a.max) / 1000))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// snapshot reports the controller's instantaneous occupancy plus the
// queue-depth high-water mark.
func (a *admission) snapshot() (inflight, queued, highWater int, ewmaMS float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.queue), a.highWater, a.ewmaMS
}
