package server

import (
	"context"
	"fmt"
	"sync"
)

// call is one in-flight coalesced computation. All requests for the same
// (pair, options) key attach to the same call and receive the same
// response bytes, computed once. refs counts the attached requests; when
// the last one abandons the wait (client disconnect), cancel aborts the
// computation's context — the explanation stops at its next scoring
// checkpoint, which is how a dropped connection propagates all the way
// into ExplainContext.
type call struct {
	done   chan struct{} // closed when body/err are valid
	cancel context.CancelFunc

	mu   sync.Mutex
	refs int

	body []byte // the marshaled response, shared byte-for-byte
	err  error
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

// coalescer deduplicates identical in-flight explanation requests
// (singleflight, keyed by backend + canonical pair content + anytime
// options) one layer above the score cache: where the shared
// scorecache.Service makes two concurrent explanations share their
// model calls, the coalescer makes two identical requests share the
// whole explanation — one lattice walk, one admission slot, one
// response marshaling.
type coalescer struct {
	mu    sync.Mutex
	calls map[string]*call
}

func newCoalescer() *coalescer {
	return &coalescer{calls: make(map[string]*call)}
}

// do returns the shared response for key, computing it at most once
// among concurrent callers. joined reports whether this caller attached
// to another request's in-flight computation. compute runs on its own
// goroutine under a context derived from base (the server's lifetime),
// cancelled when every attached request has gone away; a caller whose
// own ctx is cancelled detaches and returns ctx.Err() without waiting.
func (co *coalescer) do(ctx, base context.Context, key string, compute func(context.Context) ([]byte, error)) (body []byte, joined bool, err error) {
	co.mu.Lock()
	if c, ok := co.calls[key]; ok {
		c.mu.Lock()
		c.refs++
		c.mu.Unlock()
		co.mu.Unlock()
		return c.wait(ctx, true)
	}
	compCtx, cancel := context.WithCancel(base)
	c := &call{done: make(chan struct{}), cancel: cancel, refs: 1}
	co.calls[key] = c
	co.mu.Unlock()

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
			co.mu.Lock()
			delete(co.calls, key)
			co.mu.Unlock()
			close(c.done)
			cancel() // release the context's resources once the call settles
		}()
		c.body, c.err = compute(compCtx)
	}()
	return c.wait(ctx, false)
}

// wait blocks until the call settles or ctx is cancelled.
func (c *call) wait(ctx context.Context, joined bool) ([]byte, bool, error) {
	select {
	case <-c.done:
		return c.body, joined, c.err
	case <-ctx.Done():
		c.detach()
		return nil, joined, ctx.Err()
	}
}
