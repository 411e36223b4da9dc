package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"certa"
)

// twoReferences explains the first quick-pool pair twice, independently.
func twoReferences(t *testing.T) (certa.Pair, *certa.Result, *certa.Result) {
	t.Helper()
	d, err := newDeployment(1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.pool[:1]
	a, err := d.reference(pairs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.reference(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return pairs[0], a[0], b[0]
}

func TestPerturbedResultFailsCheck(t *testing.T) {
	p, ref, got := twoReferences(t)
	pairs := []certa.Pair{p}
	if err := checkResults(pairs, []*certa.Result{ref}, []*certa.Result{got}); err != nil {
		t.Fatalf("identical results fail the check: %v", err)
	}
	for attr := range got.Saliency.Scores {
		got.Saliency.Scores[attr] += 1e-12
		break
	}
	if err := checkResults(pairs, []*certa.Result{ref}, []*certa.Result{got}); err == nil {
		t.Error("a perturbed saliency score passes the check")
	}
}

func TestFlippedBodyByteFailsCheck(t *testing.T) {
	p, ref, _ := twoReferences(t)
	pairs := []certa.Pair{p}
	want, err := expectedBody(p, ref)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 1
	if err := checkBody(p, want, flipped); err == nil {
		t.Error("checkBody accepts a flipped byte")
	}

	refs := map[int]*certa.Result{0: ref}
	f := newFirstBodies()
	f.see(pairs, 0, want)
	if err := f.verify(pairs, refs); err != nil {
		t.Fatalf("the exact body fails verification: %v", err)
	}
	f.see(pairs, 0, flipped)
	if err := f.verify(pairs, refs); err == nil {
		t.Error("a repeat answer with a flipped byte passes")
	}
	f = newFirstBodies()
	f.see(pairs, 0, flipped)
	if err := f.verify(pairs, refs); err == nil {
		t.Error("a first answer with a flipped byte passes")
	}
}

// TestFlippedBodyFailsTheRun puts a proxy that flips one byte of the
// fifth explanation body between the generator and a serve-zipf
// server, and requires the run to report correct=false and exit 1.
func TestFlippedBodyFailsTheRun(t *testing.T) {
	spec := serveZipf
	spec.start = func(p profile) (*target, error) {
		tg, err := startServer(p)
		if err != nil {
			return nil, err
		}
		upstream, err := url.Parse(tg.url)
		if err != nil {
			tg.close()
			return nil, err
		}
		var n atomic.Int64
		proxy := httputil.NewSingleHostReverseProxy(upstream)
		proxy.ModifyResponse = func(resp *http.Response) error {
			if resp.Request.URL.Path != "/v1/explain" || n.Add(1) != 5 {
				return nil
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			resp.Body.Close()
			body[len(body)/2] ^= 1
			resp.Body = io.NopCloser(bytes.NewReader(body))
			return nil
		}
		ln, err := listen(proxy)
		if err != nil {
			tg.close()
			return nil, err
		}
		tg.stops = append(tg.stops, ln.close)
		tg.url = ln.url
		return tg, nil
	}
	w := workload{name: "serve-zipf", run: func(ctx context.Context, p profile, traced bool) (*outcome, error) {
		return runServe(ctx, p, traced, spec)
	}}
	var out bytes.Buffer
	code := runWorkloads(context.Background(), []workload{w}, []bool{false}, newProfile(1, 7, true), "", &out)
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct {
		t.Error("the result claims correct with a corrupted body")
	}
}
