// Package obs is the production-observability layer shared by the serving
// daemons: a Prometheus-text metrics registry and a sampled structured
// request logger, both engineered to the serving hot path's allocation
// discipline.
//
// The observation path — Counter.Inc, Counter.Add, Histogram.Observe —
// performs zero heap allocations and takes no locks: counters are single
// atomics, histograms are fixed-bucket atomic arrays with the sum kept in
// fixed-point nanoseconds so it can ride an atomic add. Only rendering
// (GET /metrics, a poller's cadence, not a request's) formats text, into a
// pooled buffer.
//
// Gauges are callbacks, not stored values: the registry reads the live
// counter sources (sharded cache stats, admitted sweeps) at render
// time, so the serve path never pays to mirror state it already keeps.
package obs

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event counter. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Zero-alloc, lock-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Zero-alloc, lock-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative-style latency histogram.
// Observations are classified against the upper bounds chosen at
// registration; counts and the sum (fixed-point nanoseconds) are atomics,
// so Observe never allocates or locks. Bucket counts are stored
// per-bucket and accumulated into Prometheus's cumulative `le` form only
// at render time.
type Histogram struct {
	bounds []float64 // sorted upper bounds, in seconds
	counts []atomic.Uint64
	inf    atomic.Uint64
	sumNs  atomic.Int64
}

// DefBuckets spans 50µs–5s, the range between a plan-cache hit served
// from memory and a cold miss riding a queued sweep behind a full batch.
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Observe records one value in seconds. The linear bucket scan is
// branch-predictable over the ≤16 fixed buckets and cheaper than a binary
// search at this size; the whole call is zero-alloc and lock-free.
func (h *Histogram) Observe(seconds float64) {
	for i, b := range h.bounds {
		if seconds <= b {
			h.counts[i].Add(1)
			h.sumNs.Add(int64(seconds * 1e9))
			return
		}
	}
	h.inf.Add(1)
	h.sumNs.Add(int64(seconds * 1e9))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values in seconds (nanosecond
// resolution — the fixed-point representation that keeps Observe atomic).
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// metricKind discriminates render formats.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered time series (plus its TYPE/HELP header group).
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels string // pre-rendered `{k="v",...}`, empty when unlabeled

	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds registered metrics and renders them in Prometheus text
// exposition format. Registration happens at daemon assembly (allocations
// fine); rendering reuses a pooled buffer. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	bufPool sync.Pool // *[]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.bufPool.New = func() any {
		b := make([]byte, 0, 4096)
		return &b
	}
	return r
}

// Labels renders label pairs ("shard", "3", ...) into the pre-baked
// `{shard="3"}` form registration wants. Pairs must come in key/value
// order; an odd tail is dropped.
func Labels(pairs ...string) string {
	if len(pairs) < 2 {
		return ""
	}
	s := "{"
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			s += ","
		}
		s += pairs[i] + `="` + pairs[i+1] + `"`
	}
	return s + "}"
}

// Counter registers and returns a new counter. labels is a pre-rendered
// label set from Labels, or "" for an unlabeled series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, labels: labels, counter: c})
	return c
}

// Gauge registers a callback gauge: fn is read at render time, so the
// instrumented code keeps exactly one copy of its state.
func (r *Registry) Gauge(name, help, labels string, fn func() float64) {
	r.add(&metric{name: name, help: help, kind: kindGauge, labels: labels, gaugeFn: fn})
}

// CounterFunc registers a callback-backed counter: fn is read at render
// time, like a gauge, but the series is exposed with counter semantics.
// Use it to export monotone counts the instrumented code already keeps
// (cache hit totals, shed counts) without mirroring them into a
// second atomic on the hot path.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.add(&metric{name: name, help: help, kind: kindCounter, labels: labels, gaugeFn: fn})
}

// Histogram registers and returns a fixed-bucket histogram over the given
// upper bounds (seconds, must be sorted ascending; nil uses DefBuckets).
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	r.add(&metric{name: name, help: help, kind: kindHistogram, labels: labels, hist: h})
	return h
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// appendFloat renders a metric value the way Prometheus text wants it.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendSeries renders one sample line: name, optional labels (with an
// extra `le` pair for histogram buckets), and the value.
func appendHeader(b []byte, m *metric, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, m.name...)
	b = append(b, ' ')
	b = append(b, m.help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, m.name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// Render appends the full exposition into b and returns it. Exposed for
// tests; HTTP serving goes through Handler.
//
// Series are grouped by metric name in first-registration order — the
// text format requires every line of one metric contiguous under a
// single HELP/TYPE header, and callers register labeled series in
// whatever order is natural for them (e.g. all of one replica's series
// together), so the grouping happens here, not at registration.
func (r *Registry) Render(b []byte) []byte {
	r.mu.Lock()
	metrics := r.metrics
	r.mu.Unlock()
	emitted := make([]bool, len(metrics))
	for i, m := range metrics {
		if emitted[i] {
			continue
		}
		switch m.kind {
		case kindCounter:
			b = appendHeader(b, m, "counter")
		case kindGauge:
			b = appendHeader(b, m, "gauge")
		case kindHistogram:
			b = appendHeader(b, m, "histogram")
		}
		for j := i; j < len(metrics); j++ {
			s := metrics[j]
			if emitted[j] || s.name != m.name {
				continue
			}
			emitted[j] = true
			switch s.kind {
			case kindCounter:
				b = append(b, s.name...)
				b = append(b, s.labels...)
				b = append(b, ' ')
				if s.counter != nil {
					b = strconv.AppendUint(b, s.counter.Value(), 10)
				} else {
					b = appendFloat(b, s.gaugeFn())
				}
				b = append(b, '\n')
			case kindGauge:
				b = append(b, s.name...)
				b = append(b, s.labels...)
				b = append(b, ' ')
				b = appendFloat(b, s.gaugeFn())
				b = append(b, '\n')
			case kindHistogram:
				b = r.renderHist(b, s)
			}
		}
	}
	return b
}

// renderHist emits the cumulative bucket series, sum, and count for one
// histogram. Bucket counts are read once each; the cumulative sums are
// formed here, so a concurrent Observe can at worst land between bucket
// reads — the same "consistent enough" contract the cache counters keep.
func (r *Registry) renderHist(b []byte, m *metric) []byte {
	h := m.hist
	labelsNoBrace := ""
	if m.labels != "" {
		labelsNoBrace = m.labels[1:len(m.labels)-1] + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b = append(b, m.name...)
		b = append(b, "_bucket{"...)
		b = append(b, labelsNoBrace...)
		b = append(b, `le="`...)
		b = appendFloat(b, bound)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.inf.Load()
	b = append(b, m.name...)
	b = append(b, "_bucket{"...)
	b = append(b, labelsNoBrace...)
	b = append(b, `le="+Inf"} `...)
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')

	b = append(b, m.name...)
	b = append(b, "_sum"...)
	b = append(b, m.labels...)
	b = append(b, ' ')
	b = appendFloat(b, h.Sum())
	b = append(b, '\n')
	b = append(b, m.name...)
	b = append(b, "_count"...)
	b = append(b, m.labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	return append(b, '\n')
}

// Handler serves the registry as a Prometheus scrape target
// (GET /metrics). Rendering reuses pooled buffers, so a scraper polling
// every few seconds does not generate per-scrape garbage proportional to
// the metric count.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		bp := r.bufPool.Get().(*[]byte)
		b := r.Render((*bp)[:0])
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(b) //nolint:errcheck // nothing to do about a dead scraper
		*bp = b
		r.bufPool.Put(bp)
	})
}
