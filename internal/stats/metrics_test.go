package stats

import (
	"strings"
	"testing"
)

func TestEmptySampleSnapshotMarker(t *testing.T) {
	var s Sample
	snap := s.Snapshot()
	if !snap.Empty() {
		t.Fatal("zero sample not empty")
	}
	if got := snap.String(); got != "empty" {
		t.Fatalf("empty snapshot renders %q, want explicit marker", got)
	}
	s.Observe(2.5)
	snap = s.Snapshot()
	if snap.Empty() {
		t.Fatal("non-empty sample reported empty")
	}
	if got := snap.String(); !strings.Contains(got, "min=2.500") {
		t.Fatalf("snapshot renders %q", got)
	}
}

func TestRegistrySnapshotSkipsEmptyMinMax(t *testing.T) {
	reg := NewRegistry()
	reg.Sample("s.empty")          // registered, never observed
	reg.Histogram("h.empty")       // same for a histogram
	reg.Observe("s.full", 4)       // one observation
	reg.ObserveHistogram("h.full", 4)
	snap := reg.Snapshot()
	for _, absent := range []string{"s.empty.min", "s.empty.max", "s.empty.mean", "h.empty.p50", "h.empty.max"} {
		if _, ok := snap[absent]; ok {
			t.Fatalf("empty metric leaked %q = %g into the snapshot", absent, snap[absent])
		}
	}
	if snap["s.empty.count"] != 0 || snap["h.empty.count"] != 0 {
		t.Fatal("empty metrics should still report a zero count")
	}
	if snap["s.full.min"] != 4 || snap["h.full.p50"] == 0 {
		t.Fatalf("non-empty metrics missing: %v", snap)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Observe("s", 1)
	r.ObserveHistogram("h", 1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry produced metrics")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry wrote prometheus output")
	}
}

func TestPromName(t *testing.T) {
	tests := map[string]string{
		"serve.queue.depth":   "serve_queue_depth",
		"engine.layer.act_ms": "engine_layer_act_ms",
		"9lives":              "_lives",
		"ok_name:x":           "ok_name:x",
	}
	for in, want := range tests {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.jobs.completed").Add(3)
	reg.Gauge("serve.queue.depth").Set(2)
	reg.Observe("serve.lane.occupancy", 5)
	for _, v := range []float64{0.5, 1.5, 2.5, 200} {
		reg.ObserveHistogram("engine.layer.conv_ms", v)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE serve_jobs_completed counter\nserve_jobs_completed 3\n",
		"# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n",
		"serve_lane_occupancy_count 1\n",
		"serve_lane_occupancy_sum 5\n",
		"# TYPE engine_layer_conv_ms histogram\n",
		"engine_layer_conv_ms_count 4\n",
		"engine_layer_conv_ms_sum 204.5\n",
		`engine_layer_conv_ms_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: every value ≤ 0.512 is 1 (only 0.5),
	// and the bucket holding 2.5 must already include 0.5 and 1.5.
	if !strings.Contains(out, `engine_layer_conv_ms_bucket{le="0.512"} 1`) {
		t.Fatalf("cumulative buckets wrong:\n%s", out)
	}
	if !strings.Contains(out, `engine_layer_conv_ms_bucket{le="4.096"} 3`) {
		t.Fatalf("cumulative buckets wrong:\n%s", out)
	}
}
