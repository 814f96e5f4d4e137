package report

import (
	"sync"

	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// DefaultCapacity is the Recorder ring size when none is given.
const DefaultCapacity = 16

// Recorder retains the last N flight reports and folds per-layer series
// into a metrics registry. Wire it to a Tracer with SetOnFinish(r.Observe).
// Safe for concurrent use; a nil *Recorder no-ops.
type Recorder struct {
	metrics *stats.Registry

	mu   sync.Mutex
	ring []*FlightReport
	pos  int
	n    int
}

// NewRecorder returns a recorder keeping the last capacity reports
// (DefaultCapacity if capacity <= 0). metrics may be nil.
func NewRecorder(capacity int, metrics *stats.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{metrics: metrics, ring: make([]*FlightReport, capacity)}
}

// Observe builds the flight report of a finished trace and retains it.
// Traces without engine layer spans (health checks, non-inference
// requests) are ignored.
func (r *Recorder) Observe(tr *trace.Trace) {
	if r == nil {
		return
	}
	rep := FromTrace(tr)
	if rep == nil || len(rep.Layers) == 0 {
		return
	}
	r.mu.Lock()
	r.ring[r.pos] = rep
	r.pos = (r.pos + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
	r.record(rep)
}

// record folds one report into the registry: per-layer wall time and
// predicted noise budget keyed by the stable layer label.
func (r *Recorder) record(rep *FlightReport) {
	if r.metrics == nil {
		return
	}
	for i := range rep.Layers {
		l := &rep.Layers[i]
		key := "layer." + l.Label
		r.metrics.ObserveHistogram(key+".wall_ms", l.WallMS)
		if l.PredictedBudgetBits != nil {
			r.metrics.Observe(key+".pred_budget_bits", *l.PredictedBudgetBits)
		}
	}
}

// Last returns up to n retained reports, most recent first (n <= 0: all).
func (r *Recorder) Last(n int) []*FlightReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*FlightReport, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.ring[(r.pos-i+2*len(r.ring))%len(r.ring)])
	}
	return out
}
