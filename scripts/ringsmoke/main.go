// Command ringsmoke is the CI smoke test for the sharded serving ring:
// it builds certa-serve and certa-router, boots a 2-worker ring on
// ephemeral ports, routes a load of pair requests through the router
// (bodies recorded), then SIGKILLs one worker mid-load and asserts the
// surviving requests all still succeed byte-identically — the ring's
// failover contract — and that the router's federated GET /v1/metrics
// reports the degraded ring (one healthy worker, failovers counted).
// Run from CI as:
//
//	go run ./scripts/ringsmoke
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"certa/internal/telemetry"
)

const pairCount = 8

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ringsmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ringsmoke: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "certa-ringsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	serveBin := filepath.Join(dir, "certa-serve")
	routerBin := filepath.Join(dir, "certa-router")
	for bin, pkg := range map[string]string{serveBin: "./cmd/certa-serve", routerBin: "./cmd/certa-router"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	// Two workers, then the router fronting them. The benchmark profile
	// matches servesmoke's (small SVM fixture) so the smoke stays fast;
	// -result-memo exercises the serving-layer memo on the ring path.
	shared := []string{"-records", "60", "-matches", "30", "-model", "SVM", "-triangles", "30"}
	w0, err := startProc(dir, "w0", serveBin, append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr-w0"),
		"-name", "w0", "-result-memo", "32"}, shared...)...)
	if err != nil {
		return err
	}
	defer w0.kill()
	w1, err := startProc(dir, "w1", serveBin, append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr-w1"),
		"-name", "w1", "-result-memo", "32"}, shared...)...)
	if err != nil {
		return err
	}
	defer w1.kill()

	rt, err := startProc(dir, "router", routerBin,
		"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "addr-router"),
		"-workers", "w0=http://"+w0.addr+",w1=http://"+w1.addr,
		"-records", "60", "-matches", "30", "-health-every", "500ms")
	if err != nil {
		return err
	}
	defer rt.kill()

	// First pass: every pair through the router, full ring. The recorded
	// bodies are the reference for everything after.
	bodies := make([][]byte, pairCount)
	for i := 0; i < pairCount; i++ {
		if bodies[i], err = postExplain(rt.addr, i); err != nil {
			return fmt.Errorf("full-ring request %d: %w", i, err)
		}
	}
	m, err := telemetry.Scrape(context.Background(), http.DefaultClient, "http://"+rt.addr+"/v1/metrics")
	if err != nil {
		return err
	}
	if healthy, workers := m.Sum("certa_router_workers_healthy", nil), m.Sum("certa_router_workers", nil); healthy != 2 || workers != 2 {
		return fmt.Errorf("full ring reports %v/%v healthy workers", healthy, workers)
	}
	perWorker := make(map[string]float64)
	for _, w := range []string{"w0", "w1"} {
		perWorker[w] = m.Sum("certa_explanations_served_total", telemetry.Labels{"worker": w})
	}
	if perWorker["w0"] == 0 || perWorker["w1"] == 0 {
		return fmt.Errorf("load was not sharded across both workers: %v", perWorker)
	}
	fmt.Printf("ringsmoke: full ring: %d pairs served, sharded %v\n", pairCount, perWorker)

	// Second pass with a mid-load kill: half the pairs, then SIGKILL w1,
	// then the rest. Every request must still succeed, and every body —
	// including the pairs whose owner just died — must match the
	// full-ring bytes: failover re-computes them identically on w0.
	for i := 0; i < pairCount/2; i++ {
		body, err := postExplain(rt.addr, i)
		if err != nil {
			return fmt.Errorf("pre-kill request %d: %w", i, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			return fmt.Errorf("pre-kill body %d differs from the full-ring body", i)
		}
	}
	if err := w1.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing w1: %w", err)
	}
	w1.cmd.Wait()
	fmt.Println("ringsmoke: w1 SIGKILLed mid-load")
	for i := pairCount / 2; i < pairCount; i++ {
		body, err := postExplain(rt.addr, i)
		if err != nil {
			return fmt.Errorf("post-kill request %d (failover): %w", i, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			return fmt.Errorf("post-kill body %d differs from the full-ring body", i)
		}
	}

	// The degraded ring must show in the router's metrics: one healthy
	// worker and a nonzero failover count (w1's shard fell through to
	// w0). The health prober may need a beat to notice, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, err = telemetry.Scrape(context.Background(), http.DefaultClient, "http://"+rt.addr+"/v1/metrics"); err != nil {
			return err
		}
		healthy, failovers := m.Sum("certa_router_workers_healthy", nil), m.Sum("certa_router_failovers_total", nil)
		if healthy == 1 && failovers > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring never reported degraded: %v healthy, %v failovers", healthy, failovers)
		}
		time.Sleep(200 * time.Millisecond)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(rt.addr, "/v1/healthz", &health); err != nil {
		return err
	}
	if health.Status != "degraded" {
		return fmt.Errorf("router healthz status = %q after losing a worker, want degraded", health.Status)
	}
	fmt.Printf("ringsmoke: degraded ring: %v/%v healthy, %v failovers, %v unroutable, memo hits on w0 %v\n",
		m.Sum("certa_router_workers_healthy", nil), m.Sum("certa_router_workers", nil),
		m.Sum("certa_router_failovers_total", nil), m.Sum("certa_router_unroutable_total", nil),
		m.Sum("certa_result_memo_hits_total", nil))
	return nil
}

// proc is one spawned daemon: its command handle and published address.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

func (p *proc) kill() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// startProc launches one daemon and waits for its -addr-file.
func startProc(dir, tag, bin string, args ...string) (*proc, error) {
	logFile, err := os.Create(filepath.Join(dir, "log-"+tag))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Its own process group, so a Kill cannot be confused with CI's own
	// signal handling.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrFile := ""
	for _, a := range args {
		if strings.HasPrefix(a, dir) && strings.Contains(a, "addr-") {
			addrFile = a
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return &proc{cmd: cmd, addr: string(data)}, nil
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			log, _ := os.ReadFile(logFile.Name())
			return nil, fmt.Errorf("%s never published its address; log:\n%s", tag, log)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func postExplain(addr string, pairIdx int) ([]byte, error) {
	resp, err := http.Post("http://"+addr+"/v1/explain", "application/json",
		strings.NewReader(fmt.Sprintf(`{"pair_index":%d}`, pairIdx)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func getJSON(addr, path string, into any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}
