package telemetry

import (
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4) through WriteMerged. Output is
// deterministic — families, series and label keys sorted, histogram
// buckets ascending with the cumulative `le` convention — which is what
// lets testdata/exposition_golden.txt pin the format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteMerged(w, r.Exposition())
}

// Exposition snapshots every registered series, callback-backed ones
// read now, in exposition order.
func (r *Registry) Exposition() *Exposition {
	e := &Exposition{}
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()

		out := &Family{Name: f.name, Help: escapeHelp(f.help), Type: f.kind.String()}
		for _, s := range sers {
			out.Samples = appendSamples(out.Samples, f, s)
		}
		e.Families = append(e.Families, out)
	}
	return e
}

// appendSamples renders one series' samples. Integral values (counter
// values, bucket cumulative counts, _count) are plain decimal:
// FormatFloat 'g' would switch to scientific notation at 1e6+, which
// scrapers parsing a count as an integer would silently misread.
func appendSamples(out []Sample, f *family, s *series) []Sample {
	add := func(suffix string, labels Labels, value string) {
		out = append(out, Sample{Name: f.name + suffix, Labels: labels, Value: value})
	}
	switch {
	case f.kind == kindHistogram:
		h := s.hist
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			add("_bucket", withLE(s.labels, formatValue(b)), strconv.FormatUint(cum, 10))
		}
		add("_bucket", withLE(s.labels, "+Inf"), strconv.FormatUint(cum+h.inf.Load(), 10))
		add("_sum", maps.Clone(s.labels), formatValue(h.Sum()))
		add("_count", maps.Clone(s.labels), strconv.FormatUint(h.Count(), 10))
	case s.readFn() != nil:
		add("", maps.Clone(s.labels), formatValue(s.readFn()()))
	case s.counter != nil:
		add("", maps.Clone(s.labels), strconv.FormatUint(s.counter.Value(), 10))
	default:
		add("", maps.Clone(s.labels), formatValue(s.gauge.Value()))
	}
	return out
}

// withLE copies a series' labels with the `le` bucket bound added.
func withLE(labels Labels, bound string) Labels {
	out := maps.Clone(labels)
	if out == nil {
		out = Labels{}
	}
	out["le"] = bound
	return out
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns an http.Handler serving the exposition — the body
// behind GET /v1/metrics on certa-serve and the daemons' debug muxes.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}
