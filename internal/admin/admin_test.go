package admin

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hesgx/internal/report"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// testConfig builds a handler config with a populated registry and one
// recorded trace.
func testConfig() (Config, *stats.Registry, *trace.Tracer) {
	reg := stats.NewRegistry()
	reg.Counter("serve.jobs.submitted").Add(10)
	reg.Counter("serve.jobs.completed").Add(9)
	reg.Gauge("serve.queue.depth").Set(3)
	reg.ObserveHistogram("serve.job.latency_ms", 1.5)
	reg.ObserveHistogram("serve.job.latency_ms", 8.0)

	tracer := trace.NewTracer(8)
	tr := tracer.Start("request")
	ctx := trace.With(context.Background(), tr)
	_, span := trace.StartSpan(ctx, "layer.conv", "engine")
	span.End()
	tracer.Finish(tr)

	cfg := Config{
		Metrics:       reg,
		Tracer:        tracer,
		Platform:      func() sgx.Stats { return sgx.Stats{ECalls: 7, OCalls: 2, PageFaults: 4, InjectedOverhead: 3 * time.Millisecond} },
		QueueCapacity: 64,
	}
	return cfg, reg, tracer
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading %s body: %v", path, err)
	}
	return res, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	cfg, _, _ := testConfig()
	h := Handler(cfg)
	res, body := get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"serve_jobs_submitted 10",
		"serve_queue_depth 3",
		"serve_job_latency_ms_count 2",
		`serve_job_latency_ms_bucket{le="+Inf"} 2`,
		"sgx_ecalls_total 7",
		"sgx_transitions_total 9",
		"sgx_page_faults_total 4",
		"sgx_injected_overhead_seconds_total 0.003",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

func TestMetricsWithoutPlatform(t *testing.T) {
	cfg, _, _ := testConfig()
	cfg.Platform = nil
	_, body := get(t, Handler(cfg), "/metrics")
	if strings.Contains(body, "sgx_ecalls_total") {
		t.Fatalf("platform stats rendered without a platform source:\n%s", body)
	}
}

func TestTracesLastEndpoint(t *testing.T) {
	cfg, _, _ := testConfig()
	h := Handler(cfg)
	res, body := get(t, h, "/traces/last")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/traces/last status = %d", res.StatusCode)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/traces/last is not valid JSON: %v\n%s", err, body)
	}
	var names []string
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if len(names) != 2 { // root "request" + "layer.conv"
		t.Fatalf("expected 2 complete events, got %v", names)
	}

	if res, _ := get(t, h, "/traces/last?n=zero"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n query: status = %d", res.StatusCode)
	}
}

func TestHealthzReady(t *testing.T) {
	cfg, _, _ := testConfig()
	res, body := get(t, Handler(cfg), "/healthz")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, body %s", res.StatusCode, body)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if parsed["status"] != "ok" {
		t.Fatalf("/healthz status field = %v", parsed["status"])
	}
}

func TestHealthzQueueSaturated(t *testing.T) {
	cfg, reg, _ := testConfig()
	reg.Gauge("serve.queue.depth").Set(64)
	res, body := get(t, Handler(cfg), "/healthz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /healthz status = %d, body %s", res.StatusCode, body)
	}
}

func TestHealthzShedRateDelta(t *testing.T) {
	cfg, reg, _ := testConfig()
	h := Handler(cfg)
	// First poll establishes the baseline (10 submitted, 0 rejected): ok.
	if res, _ := get(t, h, "/healthz"); res.StatusCode != http.StatusOK {
		t.Fatalf("baseline poll status = %d", res.StatusCode)
	}
	// Between polls, most admissions were shed.
	reg.Counter("serve.jobs.submitted").Add(2)
	reg.Counter("serve.jobs.rejected").Add(8)
	res, body := get(t, h, "/healthz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shedding /healthz status = %d, body %s", res.StatusCode, body)
	}
	// A healthy interval afterwards recovers readiness — deltas, not
	// lifetime totals.
	reg.Counter("serve.jobs.submitted").Add(20)
	if res, body := get(t, h, "/healthz"); res.StatusCode != http.StatusOK {
		t.Fatalf("recovered /healthz status = %d, body %s", res.StatusCode, body)
	}
}

func TestPprofIndex(t *testing.T) {
	cfg, _, _ := testConfig()
	res, body := get(t, Handler(cfg), "/debug/pprof/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", res.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profile links:\n%s", body)
	}
}

func TestServerStartServeShutdown(t *testing.T) {
	cfg, _, _ := testConfig()
	srv, err := Start("127.0.0.1:0", Handler(cfg))
	if err != nil {
		t.Fatalf("starting admin server: %v", err)
	}
	res, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz over TCP: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("live /healthz status = %d", res.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("admin listener still accepting after shutdown")
	}
}

// TestMetricsExpositionLints runs the complete /metrics output — registry,
// platform aggregate, and process-health block — through the strict
// Prometheus text-format linter.
func TestMetricsExpositionLints(t *testing.T) {
	cfg, reg, _ := testConfig()
	reg.Observe("layer.04_fc.pred_budget_bits", 5.75)
	reg.Observe("layer.03_act.pred_budget_bits", 14.25)
	reg.ObserveHistogram("layer.00_conv.wall_ms", 9.5)
	_, body := get(t, Handler(cfg), "/metrics")
	if err := stats.LintPrometheusText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v\nbody:\n%s", err, body)
	}
	for _, want := range []string{
		"process_goroutines ",
		"process_heap_bytes ",
		"process_uptime_seconds ",
		"hesgx_build_info{go_version=",
		"layer_04_fc_pred_budget_bits_count 1",
		"layer_03_act_pred_budget_bits_count 1",
		"layer_00_conv_wall_ms_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestInferenceLastEndpoint(t *testing.T) {
	cfg, reg, tracer := testConfig()
	res, _ := get(t, Handler(cfg), "/inference/last")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("/inference/last without recorder = %d, want 404", res.StatusCode)
	}

	rec := report.NewRecorder(4, reg)
	tracer.SetOnFinish(rec.Observe)
	for i := 0; i < 2; i++ {
		tr := tracer.Start("request")
		ctx := trace.With(context.Background(), tr)
		_, span := trace.StartSpan(ctx, "layer.act", "engine")
		span.Arg("step", 1).Arg("pred_budget_bits", 12.5).End()
		tracer.Finish(tr)
	}
	cfg.Reports = rec
	h := Handler(cfg)

	res, body := get(t, h, "/inference/last")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/inference/last = %d\n%s", res.StatusCode, body)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/inference/last not JSON: %v\n%s", err, body)
	}
	if _, ok := rep["layers"]; !ok {
		t.Errorf("report missing layers: %s", body)
	}

	res, body = get(t, h, "/inference/last?n=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/inference/last?n=2 = %d", res.StatusCode)
	}
	var reps []map[string]any
	if err := json.Unmarshal([]byte(body), &reps); err != nil || len(reps) != 2 {
		t.Fatalf("?n=2 returned %d reports (err %v): %s", len(reps), err, body)
	}

	if res, _ := get(t, h, "/inference/last?n=bogus"); res.StatusCode != http.StatusBadRequest {
		t.Errorf("?n=bogus = %d, want 400", res.StatusCode)
	}
}
