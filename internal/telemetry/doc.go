// Package telemetry is the repo's zero-dependency instrumentation
// subsystem: a metrics registry with Prometheus text exposition, and a
// context-carried per-explanation trace of wall-time spans.
//
// # Registry
//
// A Registry holds named metric families — counters, gauges and
// fixed-bucket histograms, each optionally labeled — and renders them
// in the Prometheus text exposition format (version 0.0.4). The hot
// paths (Counter.Inc, Gauge.Set, Histogram.Observe) are lock-free
// atomics so instrumented request paths never contend on the registry
// lock; registration and exposition take locks but happen off the hot
// path. Exposition is deterministic: families sort by name, series by
// their canonical label rendering (label keys sorted), which is what
// lets a golden-file test pin the format byte for byte.
//
// Stats that already exist elsewhere (admission snapshots, score-cache
// counters, embedding-store hit rates) are exported through CounterFunc
// and GaugeFunc callbacks read at scrape time, so the serving layer
// does not maintain a second copy of any number.
//
// # Reading and merging
//
// ReadExposition (Scrape over HTTP) parses an exposition back into
// families, and WriteMerged writes several as one: certa-router
// federates its workers' GET /v1/metrics that way, and a Registry
// writes its own exposition through the same writer. Smokes, examples
// and tests read scrapes with the same reader, so the format lives here.
//
// # Tracing
//
// A Trace records a tree of wall-time spans for one explanation:
// retrieval scans, per-level lattice exploration, featurization,
// forward passes. It rides the context —
// WithTrace/StartSpan — and every method is nil-safe, so instrumented
// packages call StartSpan unconditionally and pay one context lookup
// when tracing is off. Timing lives strictly outside core.Diagnostics:
// a trace is a side channel like scorecache.ServiceStats (the PR 6
// FlipHits precedent), so the byte-identity and
// parallelism-determinism contracts are untouched by instrumentation.
//
// # Clock
//
// All span timing flows through the Clock seam; the single sanctioned
// time.Now call in this repo's observability code lives behind it (see
// clock.go and internal/lint/CATALOG.md's nodrift entry). Tests inject
// a fake Clock for deterministic span durations.
package telemetry
