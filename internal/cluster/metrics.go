package cluster

import (
	"time"

	"certa/internal/telemetry"
)

// The router's metric catalog: every counter the routing layer keeps,
// registered in Options.Metrics (Counter handles for the counters it
// owns, callbacks for health read off the worker states). The router's
// GET /v1/metrics serves these series plus every worker's own,
// federated under a worker="<name>" label, so one scrape of the router
// covers the ring; scrape the router or the workers, not both. Series
// names carry the certa_router_ prefix so router and worker families
// never collide.
const (
	metricRouterUptime        = "certa_router_uptime_seconds"
	metricRouterWorkers       = "certa_router_workers"
	metricRouterHealthy       = "certa_router_workers_healthy"
	metricRouterForwarded     = "certa_router_forwarded_total"
	metricRouterBatchItems    = "certa_router_batch_items_total"
	metricRouterFailovers     = "certa_router_failovers_total"
	metricRouterUnroutable    = "certa_router_unroutable_total"
	metricRouterWorkerHealthy = "certa_router_worker_healthy"
	metricRouterWorkerErrors  = "certa_router_worker_errors_total"
	metricRouterHTTPDuration  = "certa_router_request_duration_seconds"
)

// registerMetrics publishes the router's observable state. Called once
// from NewRouter, after the worker list is resolved.
func (rt *Router) registerMetrics() {
	m := rt.metrics
	m.GaugeFunc(metricRouterUptime, "Seconds since router construction.", nil,
		func() float64 { return time.Since(rt.start).Seconds() })
	m.GaugeFunc(metricRouterWorkers, "Ring members configured.", nil,
		func() float64 { return float64(len(rt.workers)) })
	m.GaugeFunc(metricRouterHealthy, "Ring members currently considered healthy.", nil,
		func() float64 { return float64(rt.healthyWorkers()) })
	rt.forwarded = m.Counter(metricRouterForwarded, "Explain requests forwarded to workers (failover retries included).", nil)
	rt.batchItems = m.Counter(metricRouterBatchItems, "Batch items fanned out across the ring.", nil)
	rt.failovers = m.Counter(metricRouterFailovers, "Forwards that failed a worker and fell through to a later replica.", nil)
	rt.unroutable = m.Counter(metricRouterUnroutable, "Requests and batch items no reachable worker could serve.", nil)

	for _, ws := range rt.workers {
		ws := ws
		lbl := telemetry.Labels{"worker": ws.member.Name}
		m.GaugeFunc(metricRouterWorkerHealthy, "1 while the worker is considered healthy, 0 while down.", lbl,
			func() float64 {
				if ws.down.Load() {
					return 0
				}
				return 1
			})
		ws.errors = m.Counter(metricRouterWorkerErrors, "Transport, probe and scrape failures against this worker.", lbl)
	}

	rt.httpExplain = m.Histogram(metricRouterHTTPDuration,
		"Whole-router request latency, failover retries included.",
		telemetry.Labels{"endpoint": "/v1/explain"}, telemetry.LatencyBuckets)
	rt.httpBatch = m.Histogram(metricRouterHTTPDuration,
		"Whole-router request latency, failover retries included.",
		telemetry.Labels{"endpoint": "/v1/explain/batch"}, telemetry.LatencyBuckets)
}
