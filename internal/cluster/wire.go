package cluster

// The router's own wire types. Explanation traffic passes through the
// router byte-for-byte — workers produce the response bodies — so the
// only document minted here is the ring-level health surface.

// RingHealthResponse is the body of GET /v1/healthz on the router:
// ring occupancy rather than worker liveness detail (that is the
// certa_router_worker_healthy series in /v1/metrics). Status is "ok"
// while every member is healthy, "degraded" when some are down, "down"
// when all are. Its serialized form is pinned by
// testdata/wire_golden.json (wire_golden_test.go; refresh with
// -update-golden).
type RingHealthResponse struct {
	Status         string   `json:"status"`
	UptimeMS       float64  `json:"uptime_ms"`
	Benchmarks     []string `json:"benchmarks"`
	Workers        int      `json:"workers"`
	HealthyWorkers int      `json:"healthy_workers"`
}
