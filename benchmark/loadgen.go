package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a fake
// one to check the accounting without sleeping.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or until ctx ends.
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// sample is one request's timeline, as offsets from the start of its
// step: when it was due, when the generator actually sent it, and when
// its response was complete.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// openLoop sends n requests at fixed intervals, each on its own
// goroutine, whether or not earlier ones have finished: independent
// users do not wait for each other. Latency is taken from the due
// time, so a stall charges every request queued behind it, and sent −
// due records how late the generator itself ran.
func openLoop(ctx context.Context, clk clock, interval time.Duration, n int, send func(ctx context.Context, i int) error) []sample {
	samples := make([]sample, n)
	start := clk.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		clk.SleepUntil(ctx, start.Add(due))
		wg.Add(1)
		go func(s *sample, i int) {
			defer wg.Done()
			s.due = due
			s.sent = clk.Now().Sub(start)
			s.err = send(ctx, i)
			s.done = clk.Now().Sub(start)
		}(&samples[i], i)
	}
	wg.Wait()
	return samples
}

// closedLoop sends up to n requests over conns callers that each wait
// for a reply before sending again; with within > 0 no request is sent
// once that long has passed. It returns the samples of the requests it
// sent, in order.
func closedLoop(ctx context.Context, clk clock, conns, n int, within time.Duration, send func(ctx context.Context, i int) error) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	start := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := clk.Now().Sub(start)
				if within > 0 && now >= within {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				s.sent = now
				s.due = s.sent
				s.err = send(ctx, i)
				s.done = clk.Now().Sub(start)
			}
		}()
	}
	wg.Wait()
	return samples[:min(int(next.Load()), n)]
}

// newClient returns the generator's HTTP client: at most conns
// keep-alive connections, so requests beyond them wait in the client
// and that wait counts in their latency.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON request and returns the body of a 200 response.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// get fetches a URL's body (metrics scrapes).
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return out, nil
}
