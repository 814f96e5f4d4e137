// End-to-end exercise of the black-box diagnostics loop: a serving stack
// held to latency objectives no request can meet, a live flight recorder,
// and a Capturer writing a postmortem bundle that the hesgx-diag renderer can
// turn into an incident report. This is the full-stack counterpart of the
// unit tests under internal/diag.
package hesgx_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	mrand "math/rand/v2"

	"hesgx/internal/core"
	"hesgx/internal/diag"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/slo"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// e2eClock drives the flight recorder's ring deterministically so the
// bundle carries a full trailing window without waiting wall-clock minutes.
type e2eClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *e2eClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *e2eClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// TestDiagnosticsBundleEndToEnd serves inferences against latency
// objectives no request can meet, so the SLO tracker pages into the bus
// with the slow request's trace ID as exemplar; the Capturer must write
// exactly one debounced bundle containing the trigger event, a >= 60-sample
// metric window, a flight report carrying the paging request's trace ID,
// and both runtime profiles — and the bundle must render.
func TestDiagnosticsBundleEndToEnd(t *testing.T) {
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	bus := diag.NewBus(diag.DefaultBusCapacity, reg)
	svc, err := core.NewEnclaveService(platform, params,
		core.WithKeySource(ring.NewSeededSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(reg)
	rng := mrand.New(mrand.NewPCG(62, 63))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, rng),
	)
	engine, err := core.NewEngine(svc, model,
		core.WithScales(63, 16, 256), core.WithPoolStrategy(core.PoolSGXDiv))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		t.Fatal(err)
	}

	tracer := trace.NewTracer(64)
	reports := report.NewRecorder(64, reg)
	tracer.SetOnFinish(reports.Observe)
	service := serve.NewService(engine, svc,
		serve.WithMetrics(reg), serve.WithTracer(tracer), serve.WithoutLanes())
	defer service.Close()

	// Pre-charge the flight recorder's ring past the 60-sample acceptance
	// bar on a deterministic clock, as a long-running server would have.
	clock := &e2eClock{t: time.Unix(1_750_000_000, 0)}
	rec := diag.NewRecorder(diag.RecorderConfig{Registry: reg, Capacity: 128, Now: clock.now})
	reg.Counter("serve.jobs.submitted").Add(0) // ensure the registry is live
	for i := 0; i < 70; i++ {
		clock.advance(time.Second)
		rec.Tick()
	}

	// Objectives under a nanosecond, the deliberate fault this postmortem
	// exercise captures: every served request burns budget in both, so the
	// first tracker tick after one pages twice with its trace ID.
	sloClock := &e2eClock{t: time.Unix(1_750_000_000, 0)}
	tracker, err := slo.New(slo.Config{
		Registry: reg,
		Objectives: []slo.Objective{
			{Name: "request", Metric: "serve.request.total_ms", Threshold: time.Nanosecond, Target: 0.99},
			{Name: "queue", Metric: "serve.job.queue_wait_ms", Threshold: time.Nanosecond, Target: 0.99},
		},
		Windows: []slo.BurnWindow{{Short: 10 * time.Second, Long: 20 * time.Second, Factor: 14.4, Severity: "page"}},
		Now:     sloClock.now,
		Events:  bus,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	capturer := diag.NewCapturer(bus, rec, diag.CaptureConfig{
		Dir:      dir,
		Debounce: time.Hour, // the run pages repeatedly; exactly one bundle may land
		Settle:   200 * time.Millisecond,
	})
	capturer.AddSource(diag.ReportsSource(reports, 0))
	capturer.AddSource(diag.TracesSource(tracer, 0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go capturer.Run(ctx)
	// Let the capture loop subscribe before the fault fires; inferences
	// retry below in case this warmup raced.
	time.Sleep(100 * time.Millisecond)

	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	ci, err := client.EncryptImages([]*nn.Tensor{img}, 63)
	if err != nil {
		t.Fatal(err)
	}
	captured := false
	for attempt := 0; attempt < 20 && !captured; attempt++ {
		if _, err := service.Infer(context.Background(), serve.Request{Image: ci}); err != nil {
			t.Fatal(err)
		}
		sloClock.advance(tracker.Interval())
		tracker.Tick()
		captured = waitUntil(time.Second, func() bool { return capturer.Captures() >= 1 })
	}
	if !captured {
		t.Fatalf("no bundle captured; bus log: %+v", bus.Recent(0))
	}
	// Both objectives paged, but the debounce window admits only the first
	// event.
	time.Sleep(100 * time.Millisecond)
	if got := capturer.Captures(); got != 1 {
		t.Fatalf("captured %d bundles, want exactly 1 (debounced)", got)
	}

	path := capturer.LastPath()
	if filepath.Dir(path) != dir {
		t.Fatalf("bundle %q landed outside -diag-dir %q", path, dir)
	}
	b, err := diag.ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}

	trig := b.Trigger()
	if trig == nil || trig.Type != diag.TypeSLOPage {
		t.Fatalf("trigger = %+v, want the slo.page fault", trig)
	}
	if trig.TraceID == 0 {
		t.Fatal("trigger event carries no trace ID: the page lost its request context")
	}
	if trig.Threshold != 14.4 || trig.Value < trig.Threshold {
		t.Errorf("trigger burn %g / factor %g, want a burn at or over the factor", trig.Value, trig.Threshold)
	}
	if samples := b.Metrics(); len(samples) < 60 {
		t.Errorf("bundle holds %d metric samples, want the >= 60-sample trailing window", len(samples))
	}

	// The paging request's flight report must be in the bundle, matched
	// by trace ID — the black box ties the page to the exact request.
	var reps []struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(b.Files["reports.json"], &reps); err != nil {
		t.Fatalf("reports.json: %v", err)
	}
	foundReport := false
	for _, r := range reps {
		if r.TraceID == trig.TraceID {
			foundReport = true
		}
	}
	if !foundReport {
		t.Errorf("no flight report with the paging trace %#x among %d reports", trig.TraceID, len(reps))
	}

	if !bytes.Contains(b.Files["goroutines.txt"], []byte("goroutine ")) {
		t.Error("bundle goroutine dump missing or malformed")
	}
	if len(b.Files["heap.pprof"]) == 0 {
		t.Error("bundle heap profile missing")
	}
	if len(b.Files["traces.json"]) == 0 {
		t.Error("bundle trace trees missing")
	}

	// The bundle renders the way cmd/hesgx-diag would print it.
	var out bytes.Buffer
	if err := diag.RenderIncident(&out, b); err != nil {
		t.Fatal(err)
	}
	rendered := out.String()
	for _, want := range []string{"incident report", string(diag.TypeSLOPage), "the trigger's own trace", "goroutines:"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("incident report missing %q:\n%s", want, rendered)
		}
	}
}

// BenchmarkLaneServing64FlightRecorder quantifies the always-on 1s flight
// recorder against the 64-client lane-serving workload: the serving loop
// runs with the recorder live at its production cadence, then the per-tick
// sampling cost over the workload's fully-populated registry is measured
// directly. The acceptance bar is overhead < 1% of the 1s cadence.
func BenchmarkLaneServing64FlightRecorder(b *testing.B) {
	const clients = 64
	svc, cis := buildLaneServingStack(b, clients,
		serve.WithLaneConfig(serve.LaneConfig{MaxLanes: clients, MinLanes: 2, Window: 2 * time.Second}))
	defer svc.Close()

	rec := diag.NewRecorder(diag.RecorderConfig{Registry: svc.Metrics})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rec.Run(ctx) // live at the production 1s cadence alongside the load

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := svc.Infer(context.Background(), serve.Request{Image: cis[c]}); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()

	// Tick cost over the registry this workload just populated — the exact
	// work the recorder repeats once per second in production.
	const ticks = 50
	var total time.Duration
	for i := 0; i < ticks; i++ {
		rec.Tick()
		total += rec.LastTickCost()
	}
	avg := total / ticks
	pct := float64(avg) / float64(rec.Interval()) * 100
	b.ReportMetric(float64(avg.Nanoseconds()), "ns/tick")
	b.ReportMetric(pct, "recorder_overhead_%")
	if pct >= 1.0 {
		b.Errorf("flight recorder tick costs %v, %.3f%% of the %v cadence (acceptance bar: < 1%%)",
			avg, pct, rec.Interval())
	}
}
