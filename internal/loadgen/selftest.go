package loadgen

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand/v2"
	"net"
	"os"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/diag"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/wire"
)

// Selftest is an in-process edge server the load generator can point at
// itself: CI soaks and `hesgx-loadgen -selftest` exercise the full wire
// path (TCP, attestation, traced envelopes, lane packing) without an
// external deployment.
type Selftest struct {
	addr     string
	service  *serve.Service
	metrics  *stats.Registry
	bus      *diag.Bus
	capturer *diag.Capturer
	diagDir  string
	cancel   context.CancelFunc
	done     chan error
}

// Addr is the TCP address the selftest server listens on.
func (s *Selftest) Addr() string { return s.addr }

// Metrics exposes the server-side registry for post-run assertions.
func (s *Selftest) Metrics() *stats.Registry { return s.metrics }

// Service exposes the serving pipeline (scheduler + lane packer).
func (s *Selftest) Service() *serve.Service { return s.service }

// Events returns the diagnostic event log accumulated during the run,
// oldest first. A healthy soak returns an empty slice.
func (s *Selftest) Events() []diag.Event { return s.bus.Recent(0) }

// Captures returns how many postmortem bundles the run triggered. A
// healthy soak captures none; see DiagDir for the bundles of an unhealthy
// one.
func (s *Selftest) Captures() int { return s.capturer.Captures() }

// DiagDir is where triggered bundles land. The directory is removed on
// Close when no bundle was captured and kept (for postmortem inspection)
// when one was.
func (s *Selftest) DiagDir() string { return s.diagDir }

// Close shuts the server down and waits for the accept loop to drain.
func (s *Selftest) Close() error {
	s.cancel()
	var err error
	select {
	case err = <-s.done:
	case <-time.After(5 * time.Second):
		err = fmt.Errorf("loadgen: selftest server did not shut down")
	}
	s.service.Close()
	if s.diagDir != "" && s.capturer.Captures() == 0 {
		os.RemoveAll(s.diagDir)
	}
	return err
}

// StartSelftest builds the reference serving stack — batching-capable
// parameters (N=1024), a zero-cost deterministic SGX platform, the small
// conv→sigmoid→pool→FC model used across the repo's integration tests,
// and the lane scheduler — and serves it on 127.0.0.1:0. The model accepts
// 1x8x8 images (the loadgen default shape).
func StartSelftest(logw io.Writer) (*Selftest, error) {
	tm, err := core.SIMDBatchingModulus(1024, 20)
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest modulus: %w", err)
	}
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest prime: %w", err)
	}
	params, err := he.NewParameters(1024, q, tm, he.DefaultDecompositionBase)
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest parameters: %w", err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest platform: %w", err)
	}
	metrics := stats.NewRegistry()
	bus := diag.NewBus(diag.DefaultBusCapacity, metrics)
	// The soak's zero-bundle gate covers the load-dependent signals (shed
	// spikes, wire faults, SGX anomalies, SLO pages).
	svc, err := core.NewEnclaveService(platform, params,
		core.WithKeySource(ring.NewSeededSource(31)))
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest enclave: %w", err)
	}
	r := mrand.New(mrand.NewPCG(3, 4))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
	engine, err := core.NewEngine(svc, model,
		core.WithScales(63, 16, 256), core.WithPoolStrategy(core.PoolSGXDiv))
	if err != nil {
		return nil, fmt.Errorf("loadgen: selftest engine: %w", err)
	}
	if err := engine.EncodeWeights(); err != nil {
		return nil, fmt.Errorf("loadgen: selftest weights: %w", err)
	}
	service := serve.NewService(engine, svc,
		serve.WithMetrics(metrics),
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: 2, QueueDepth: 64}),
		serve.WithLaneConfig(serve.LaneConfig{MaxLanes: 16, MinLanes: 2, Window: 10 * time.Millisecond}))
	if logw == nil {
		logw = io.Discard
	}
	srv, err := wire.NewServer(svc, engine, slog.New(slog.NewTextHandler(logw, nil)),
		wire.WithMetrics(metrics), wire.WithService(service),
		wire.WithTracer(service.Tracer), wire.WithEventBus(bus))
	if err != nil {
		service.Close()
		return nil, fmt.Errorf("loadgen: selftest server: %w", err)
	}
	// The full diagnostics loop runs armed, exactly as a production server
	// would: a healthy soak must end with zero captured bundles, and an
	// unhealthy one leaves a postmortem bundle behind to debug from.
	diagDir, err := os.MkdirTemp("", "hesgx-loadgen-diag-*")
	if err != nil {
		service.Close()
		return nil, fmt.Errorf("loadgen: selftest diag dir: %w", err)
	}
	recorder := diag.NewRecorder(diag.RecorderConfig{Registry: metrics})
	monitor := diag.NewMonitor(diag.MonitorConfig{Bus: bus})
	recorder.OnSample(monitor.Observe)
	capturer := diag.NewCapturer(bus, recorder, diag.CaptureConfig{Dir: diagDir})
	capturer.AddSource(diag.TracesSource(service.Tracer, 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		service.Close()
		os.RemoveAll(diagDir)
		return nil, fmt.Errorf("loadgen: selftest listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go recorder.Run(ctx)
	go capturer.Run(ctx)
	go func() { done <- srv.Serve(ctx, ln) }()
	return &Selftest{
		addr:     ln.Addr().String(),
		service:  service,
		metrics:  metrics,
		bus:      bus,
		capturer: capturer,
		diagDir:  diagDir,
		cancel:   cancel,
		done:     done,
	}, nil
}
