package stats

import (
	"strings"
	"testing"
)

func TestLintPrometheusTextAccepts(t *testing.T) {
	good := `# TYPE serve_jobs_total counter
serve_jobs_total 42
# HELP free-form comment survives
# TYPE queue_depth gauge
queue_depth -3
# TYPE lat_ms histogram
lat_ms_bucket{le="0.5"} 1
lat_ms_bucket{le="+Inf"} 2
lat_ms_sum 1.25
lat_ms_count 2
# TYPE occupancy summary
occupancy_count 9
occupancy_sum 27
# TYPE build_info gauge
build_info{version="v1.2.3",note="a \"quoted\" value\n"} 1
`
	if err := LintPrometheusText(strings.NewReader(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestLintPrometheusTextRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate type":           "# TYPE a counter\na 1\n# TYPE a counter\n",
		"duplicate series":         "# TYPE a counter\na 1\na 2\n",
		"duplicate labeled series": "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"illegal metric name":      "# TYPE 9bad counter\n9bad 1\n",
		"illegal sample name":      "# TYPE a counter\na 1\nb-ad 2\n",
		"unknown type":             "# TYPE a widget\na 1\n",
		"type after samples":       "# TYPE a_count counter\na_count 1\n# TYPE a summary\n",
		"undeclared family":        "x_total 5\n",
		"bad value":                "# TYPE a gauge\na notanumber\n",
		"bad label name":           "# TYPE a gauge\na{9x=\"1\"} 1\n",
		"unquoted label value":     "# TYPE a gauge\na{x=1} 1\n",
		"illegal escape":           "# TYPE a gauge\na{x=\"\\q\"} 1\n",
		"unterminated labels":      "# TYPE a gauge\na{x=\"1\" 1\n",
	}
	for name, text := range cases {
		if err := LintPrometheusText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
}

// TestRegistryExpositionLints renders a populated registry — every metric
// kind, including the dotted names the serving stack uses — and requires
// the result to lint clean.
func TestRegistryExpositionLints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.jobs.submitted").Add(3)
	reg.Gauge("serve.queue.depth").Set(2)
	reg.Observe("layer.04_fc.pred_budget_bits", 17.25)
	reg.Observe("layer.03_act.pred_budget_bits", 14.5)
	reg.ObserveHistogram("engine.layer.conv_ms", 12.5)
	reg.ObserveHistogram("layer.00_conv.wall_ms", 11.0)
	reg.Sample("empty.sample") // renders count/sum only
	var b strings.Builder
	reg.WritePrometheus(&b)
	if err := LintPrometheusText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("registry exposition fails lint: %v\n%s", err, b.String())
	}
}
