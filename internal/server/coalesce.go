package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// call is one computation of a request key. While it runs, every
// request for the same key attaches to it and receives the same
// response bytes, computed once. refs counts the attached requests;
// when the last one abandons the wait (client disconnect), cancel
// aborts the computation's context — the explanation stops at its next
// scoring checkpoint, which is how a dropped connection propagates all
// the way into ExplainContext. A settled call the table keeps is
// replayed: its body answers repeats without any computation.
type call struct {
	key    string
	done   chan struct{} // closed when body/err are valid
	cancel context.CancelFunc

	mu   sync.Mutex
	refs int

	body []byte // the marshaled response, shared byte-for-byte
	err  error

	// prev and next link a kept call into the table's LRU; both are nil
	// while the call runs. Guarded by the table's mutex.
	prev, next *call
}

// detach drops one attached request; the last one out cancels the
// computation.
func (c *call) detach() {
	c.mu.Lock()
	c.refs--
	last := c.refs == 0
	c.mu.Unlock()
	if last {
		c.cancel()
	}
}

// requestTable is one backend's table of explanation requests, keyed
// by coalesceKey: backend, canonical pair content and anytime options.
// A running call is joined, which makes identical in-flight requests
// share one lattice walk, one admission slot and one response
// marshaling (singleflight one layer above the score cache, which
// shares individual model calls). A settled call stays in the table
// only when its computation succeeded, its request carries no
// deadline_ms (the truncation point of a deadline depends on the wall
// clock, so a replayed body could differ from a fresh one) and capacity
// is positive; kept calls form an LRU of at most capacity entries, and
// a repeat replays the kept bytes without an admission slot or any
// engine work. Every other call leaves the table when it settles.
type requestTable struct {
	mu       sync.Mutex
	calls    map[string]*call
	capacity int
	kept     int
	head     call // sentinel of the kept calls' LRU ring, most recent at head.next

	// lookups counts the deterministic requests of a table with
	// capacity; hits the ones answered by a replay.
	lookups, hits int64
}

func newRequestTable(capacity int) *requestTable {
	t := &requestTable{calls: make(map[string]*call), capacity: capacity}
	t.head.prev, t.head.next = &t.head, &t.head
	return t
}

func (t *requestTable) unlink(c *call) {
	c.prev.next = c.next
	c.next.prev = c.prev
}

func (t *requestTable) pushFront(c *call) {
	c.prev = &t.head
	c.next = t.head.next
	c.prev.next = c
	c.next.prev = c
}

// do answers one request for key with a single lookup: a kept call is
// replayed (replayed), a running one is joined (joined), and otherwise
// this request leads a new computation. compute runs on its own
// goroutine under a context derived from base (the server's lifetime),
// cancelled when every attached request has gone away; a caller whose
// own ctx is cancelled detaches and returns ctx.Err() without waiting.
// deterministic says whether the request carries no deadline_ms, which
// decides whether its call may be kept.
func (t *requestTable) do(ctx, base context.Context, key string, deterministic bool, compute func(context.Context) ([]byte, error)) (body []byte, joined, replayed bool, err error) {
	keep := deterministic && t.capacity > 0
	t.mu.Lock()
	if keep {
		t.lookups++
	}
	for {
		c, ok := t.calls[key]
		switch {
		case ok && c.next != nil:
			t.hits++
			t.unlink(c)
			t.pushFront(c)
			t.mu.Unlock()
			return c.body, false, true, nil
		case ok:
			c.mu.Lock()
			c.refs++
			c.mu.Unlock()
			t.mu.Unlock()
			body, err = c.wait(ctx)
			if errors.Is(err, context.Canceled) && ctx.Err() == nil && base.Err() == nil {
				// We attached to a computation whose every requester had
				// disconnected just before we arrived; its cancellation is
				// not ours. Re-issue: the cancelled call has left the
				// table, so this request leads a fresh computation or
				// joins a newer one. What it reports is how its final
				// attempt was answered.
				t.mu.Lock()
				continue
			}
			return body, true, false, err
		}
		c = t.start(base, key, keep, compute)
		t.mu.Unlock()
		body, err = c.wait(ctx)
		return body, false, false, err
	}
}

// start registers a new call for key and launches its computation.
// The caller holds t.mu.
func (t *requestTable) start(base context.Context, key string, keep bool, compute func(context.Context) ([]byte, error)) *call {
	compCtx, cancel := context.WithCancel(base)
	c := &call{key: key, done: make(chan struct{}), cancel: cancel, refs: 1}
	t.calls[key] = c
	go func() {
		defer func() {
			// The computation goroutine is outside net/http's per-request
			// panic recovery; contain an engine panic to a failed call (a
			// 500 for its requesters) instead of crashing the daemon and
			// losing the unsnapshotted cache. A scoring shard's panic
			// already arrives as a *workpool.PanicError; this is the
			// backstop for a panic anywhere else in the computation.
			if r := recover(); r != nil {
				c.body, c.err = nil, fmt.Errorf("explanation panicked: %v", r)
			}
			t.settle(c, keep && c.err == nil)
			close(c.done)
			cancel() // release the context's resources once the call settles
		}()
		c.body, c.err = compute(compCtx)
	}()
	return c
}

// settle either keeps a finished call for replay, evicting the least
// recently used kept call past capacity, or removes it from the table.
func (t *requestTable) settle(c *call, keep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !keep {
		delete(t.calls, c.key)
		return
	}
	t.pushFront(c)
	if t.kept++; t.kept > t.capacity {
		coldest := t.head.prev
		t.unlink(coldest)
		delete(t.calls, coldest.key)
		t.kept--
	}
}

// stats snapshots the replay counters and the number of kept calls.
func (t *requestTable) stats() (lookups, hits int64, kept int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookups, t.hits, t.kept
}

// wait blocks until the call settles or ctx is cancelled.
func (c *call) wait(ctx context.Context) ([]byte, error) {
	select {
	case <-c.done:
		return c.body, c.err
	case <-ctx.Done():
		c.detach()
		return nil, ctx.Err()
	}
}
