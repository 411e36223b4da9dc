// Command servesmoke is the CI smoke test for cmd/certa-serve: it
// builds the daemon, starts it on an ephemeral port with a cache file,
// issues one cold and one warm request, shuts it down gracefully
// (snapshot written), restarts it from the snapshot and asserts the
// restarted server answers the same request entirely from the restored
// cache (restored entries > 0, cache hits > 0, zero model invocations).
// Every check reads GET /v1/metrics, the server's only stats surface,
// through the telemetry package's exposition reader. Run from CI as:
//
//	go run ./scripts/servesmoke
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"certa/internal/telemetry"
)

// ab selects the smoke backend's series.
var ab = telemetry.Labels{"backend": "AB"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "certa-servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "certa-serve")
	cacheFile := filepath.Join(dir, "cache.snap")

	build := exec.Command("go", "build", "-o", bin, "./cmd/certa-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building certa-serve: %w", err)
	}

	req := []byte(`{"pair_index":0,"top_k":3}`)

	// First life: cold start, cold + warm request, graceful shutdown.
	addr, stop, err := startServe(bin, dir, cacheFile, "run1")
	if err != nil {
		return err
	}
	coldBody, coldDur, err := timedExplain(addr, req)
	if err != nil {
		stop()
		return fmt.Errorf("cold request: %w", err)
	}
	warmBody, warmDur, err := timedExplain(addr, req)
	if err != nil {
		stop()
		return fmt.Errorf("warm request: %w", err)
	}
	if !bytes.Equal(coldBody, warmBody) {
		stop()
		return fmt.Errorf("warm response differs from cold response")
	}
	m, err := telemetry.Scrape(context.Background(), http.DefaultClient, "http://"+addr+"/v1/metrics")
	if err != nil {
		stop()
		return err
	}
	if served := m.Sum("certa_explanations_served_total", nil); served != 2 {
		stop()
		return fmt.Errorf("first life served %v computations, want 2", served)
	}
	// After two explanations the explain latency histogram must have
	// observations and the coalescing counter must be present (zero is
	// fine — the requests were sequential).
	count := m.Sum("certa_explain_duration_seconds_count", ab)
	if count <= 0 {
		stop()
		return fmt.Errorf("/v1/metrics explain latency histogram recorded no observations")
	}
	if m.Family("certa_requests_coalesced_total") == nil {
		stop()
		return fmt.Errorf("/v1/metrics is missing certa_requests_coalesced_total")
	}
	fmt.Printf("servesmoke: first life: cold %s, warm %s, %.0f cached scores, %.0f explain observations\n",
		coldDur.Round(time.Millisecond), warmDur.Round(time.Millisecond),
		m.Sum("certa_score_cache_entries", ab), count)
	if err := stop(); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if fi, err := os.Stat(cacheFile); err != nil || fi.Size() == 0 {
		return fmt.Errorf("shutdown wrote no cache snapshot: %v", err)
	}

	// Second life: restart from the snapshot; the same request must be
	// answered warm — shared-cache hits, not one model invocation.
	addr, stop, err = startServe(bin, dir, cacheFile, "run2")
	if err != nil {
		return err
	}
	defer stop()
	restartBody, restartDur, err := timedExplain(addr, req)
	if err != nil {
		return fmt.Errorf("post-restart request: %w", err)
	}
	if !bytes.Equal(coldBody, restartBody) {
		return fmt.Errorf("post-restart response differs from first life's")
	}
	if m, err = telemetry.Scrape(context.Background(), http.DefaultClient, "http://"+addr+"/v1/metrics"); err != nil {
		return err
	}
	restored := m.Sum("certa_score_cache_restored_entries", ab)
	hits, misses := m.Sum("certa_score_cache_hits_total", ab), m.Sum("certa_score_cache_misses_total", ab)
	if restored <= 0 {
		return fmt.Errorf("restart restored no cache entries")
	}
	if hits <= 0 {
		return fmt.Errorf("restarted server answered cold (0 cache hits)")
	}
	if misses != 0 {
		return fmt.Errorf("restarted server still paid %v model calls", misses)
	}
	// The candidate retrieval index is rebuilt at every startup; a warm
	// backend must expose its footprint.
	records, tokens := m.Sum("certa_index_records", ab), m.Sum("certa_index_distinct_tokens", ab)
	buildS := m.Sum("certa_index_build_seconds", ab)
	if records <= 0 || tokens <= 0 || buildS <= 0 {
		return fmt.Errorf("warm backend index series incomplete: %v records, %v tokens, %vs build", records, tokens, buildS)
	}
	fmt.Printf("servesmoke: second life: %.0f entries restored, request in %s with %.0f cache hits and 0 model calls; index %.0f records / %.0f tokens in %.1fms\n",
		restored, restartDur.Round(time.Millisecond), hits, records, tokens, 1000*buildS)
	return nil
}

// startServe launches the daemon and waits for its address file; stop
// SIGTERMs it and waits for a clean exit.
func startServe(bin, dir, cacheFile, tag string) (addr string, stop func() error, err error) {
	addrFile := filepath.Join(dir, "addr-"+tag)
	logFile, err := os.Create(filepath.Join(dir, "log-"+tag))
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache-file", cacheFile,
		"-records", "60", "-matches", "30", "-model", "SVM", "-triangles", "30")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("certa-serve did not exit within 60s of SIGTERM")
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return string(data), stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			log, _ := os.ReadFile(logFile.Name())
			return "", nil, fmt.Errorf("certa-serve never published its address; log:\n%s", log)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func timedExplain(addr string, body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := http.Post("http://"+addr+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, time.Since(start), nil
}
