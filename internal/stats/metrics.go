package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Lightweight serving metrics: named counters, gauges and streaming
// samples. The serving pipeline (lane packer, scheduler, engine, enclave)
// records into a shared Registry; the server binary logs snapshots. The
// types are allocation-free on the hot path and safe for concurrent use.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight jobs).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Sample accumulates a stream of observations into count/sum/min/max —
// enough for mean batch occupancy and latency reporting without retaining
// the series.
type Sample struct {
	mu       sync.Mutex
	n        int64
	sum      float64
	min, max float64
}

// Observe folds one observation into the sample.
func (s *Sample) Observe(x float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
}

// SampleSnapshot is a point-in-time copy of a Sample.
type SampleSnapshot struct {
	N        int64
	Sum      float64
	Min, Max float64
}

// Mean returns the sample mean (0 for an empty sample).
func (s SampleSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Empty reports whether the sample has no observations — in which case
// Min and Max are meaningless and must not be formatted as values.
func (s SampleSnapshot) Empty() bool { return s.N == 0 }

// String renders the snapshot for logs. An empty sample renders as an
// explicit marker instead of fabricated zero min/max.
func (s SampleSnapshot) String() string {
	if s.Empty() {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f", s.N, s.Mean(), s.Min, s.Max)
}

// Snapshot copies the sample's accumulators.
func (s *Sample) Snapshot() SampleSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SampleSnapshot{N: s.n, Sum: s.sum, Min: s.min, Max: s.max}
}

// Registry is a named collection of metrics. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is safe to record into: every
// method no-ops, so instrumented code needs no nil checks.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	samples    map[string]*Sample
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		samples:    make(map[string]*Sample),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Sample returns the named sample, creating it on first use.
func (r *Registry) Sample(name string) *Sample {
	if r == nil {
		return &Sample{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.samples[name]
	if !ok {
		s = &Sample{}
		r.samples[name] = s
	}
	return s
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Observe records one observation into the named sample.
func (r *Registry) Observe(name string, x float64) {
	if r == nil {
		return
	}
	r.Sample(name).Observe(x)
}

// ObserveHistogram records one observation into the named histogram.
func (r *Registry) ObserveHistogram(name string, x float64) {
	if r == nil {
		return
	}
	r.Histogram(name).Observe(x)
}

// ObserveHistogramExemplar records one observation with an exemplar trace
// ID into the named histogram (0 = no exemplar).
func (r *Registry) ObserveHistogramExemplar(name string, x float64, exemplar uint64) {
	if r == nil {
		return
	}
	r.Histogram(name).ObserveExemplar(x, exemplar)
}

// Snapshot renders every metric to a flat name→value map: counters and
// gauges directly, samples as <name>.count / .mean / .min / .max, and
// histograms as <name>.count / .mean / .p50 / .p99 / .max. Empty samples
// and histograms emit only their zero count — never fabricated min/max
// values.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	samples := make(map[string]*Sample, len(r.samples))
	for k, v := range r.samples {
		samples[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		out[k] = float64(c.Value())
	}
	for k, g := range gauges {
		out[k] = float64(g.Value())
	}
	for k, s := range samples {
		snap := s.Snapshot()
		out[k+".count"] = float64(snap.N)
		if snap.Empty() {
			continue
		}
		out[k+".mean"] = snap.Mean()
		out[k+".min"] = snap.Min
		out[k+".max"] = snap.Max
	}
	for k, h := range histograms {
		snap := h.Snapshot()
		out[k+".count"] = float64(snap.Count)
		if snap.Empty() {
			continue
		}
		out[k+".mean"] = snap.Mean()
		out[k+".p50"] = snap.Quantile(0.5)
		out[k+".p99"] = snap.Quantile(0.99)
		out[k+".max"] = snap.Max
	}
	return out
}

// String renders a sorted, human-readable snapshot for logs.
func (r *Registry) String() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3f", k, snap[k])
	}
	return b.String()
}
