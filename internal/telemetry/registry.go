package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels names one series inside a metric family. A nil or empty map
// is the unlabeled series. Keys and values are copied at registration;
// the canonical rendering sorts keys, so series identity and
// exposition order never depend on map iteration order.
type Labels map[string]string

// Registry is a set of named metric families. All methods are safe
// for concurrent use; the returned Counter/Gauge/Histogram handles are
// lock-free on their hot paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry: the daemons mount it on their
// debug mux so ad-hoc instrumentation is scrapeable without plumbing.
// Library code should take an explicit *Registry instead.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*series // key: canonical label rendering
}

// series is one (name, labels) sample stream. The value field matching
// the family kind is allocated at creation (under family.mu) and never
// reassigned, so scrapes may read it without the lock; fn, the only
// mutable field (re-registration replaces the callback), is atomic and
// takes precedence over counter/gauge for callback-backed series.
type series struct {
	labels  string // canonical `{k="v",...}` rendering, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	fn      atomic.Value // func() float64, unset until a *Func registration
	hist    *Histogram
}

// readFn returns the callback for a func-backed series, or nil.
func (s *series) readFn() func() float64 {
	fn, _ := s.fn.Load().(func() float64)
	return fn
}

// Counter is a monotonically increasing sample. The zero value is
// ready to use, but counters should be obtained from a Registry so
// they are scrapeable.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a sample that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop; safe concurrently).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram layout for request and stage
// latencies in seconds: 0.5ms up to 10s, roughly log-spaced.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with cumulative `le` buckets in
// the exposition. Observe is lock-free: one atomic add into the
// bucket, one into the total count, one CAS loop on the float sum.
type Histogram struct {
	bounds []float64 // ascending finite upper bounds (le)
	counts []atomic.Uint64
	inf    atomic.Uint64 // the +Inf overflow bucket
	total  atomic.Uint64
	sum    Gauge // float accumulator; reuses the CAS Add
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.total.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts by linear interpolation inside the bucket the rank falls in —
// the histogram_quantile estimate. Samples beyond the last finite
// bound clamp to it. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= target {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (b-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, kindCounter, labels, nil, nil).counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, kindGauge, labels, nil, nil).gauge
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time — the bridge for counters that already live elsewhere
// (server atomics, scorecache.ServiceStats). Re-registering the same
// (name, labels) replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindCounter, labels, fn, nil)
}

// GaugeFunc registers a callback-backed gauge series.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindGauge, labels, fn, nil)
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending finite bucket upper bounds (a +Inf bucket is
// implicit). Buckets are fixed at registration.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram " + name + " buckets must be strictly ascending")
		}
	}
	return r.register(name, help, kindHistogram, labels, nil, buckets).hist
}

// snapshotFamilies returns the families sorted by name — the only way
// family order ever leaves the registry, so exposition is
// deterministic by construction.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// register resolves (creates if absent) the series for (name, labels),
// validating names and enforcing kind consistency per family. The
// kind-appropriate value (counter/gauge/hist) is allocated here, while
// f.mu is held, so concurrent first registrations of the same series
// all receive the same handle and no series field is ever written
// outside the lock. It panics on misuse: metric registration happens
// at construction time, so a bad name or a kind clash is a programmer
// error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels Labels, fn func() float64, buckets []float64) *series {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			bounds := append([]float64(nil), buckets...)
			s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
		}
		f.series[key] = s
	}
	if fn != nil {
		s.fn.Store(fn)
	}
	return s
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels produces the canonical `{k="v",...}` rendering with
// keys sorted, or "" for no labels. This string is both the series
// identity and its exposition form.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validMetricName(k) {
			panic("telemetry: invalid label name " + strconv.Quote(k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}
