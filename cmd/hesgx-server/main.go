// Command hesgx-server runs the CAV edge server of §VII: it launches the
// (simulated) SGX inference enclave, generates HE keys inside it, loads the
// trained CNN, and serves attestation and encrypted-inference requests over
// TCP through the concurrent serving pipeline (slot-lane packing, bounded
// admission queue, worker pool).
//
// Usage:
//
//	hesgx-server -model model.bin [-addr :7700] [-calibrated]
//	             [-workers N] [-queue N] [-deadline 2s]
//	             [-simd-params] [-packed-conv]
//	             [-lane-window 5ms] [-lane-max 64]
//	             [-lane-min 2] [-no-lanes]
//	             [-stats-interval 30s] [-admin :9090]
//	             [-trace-ring 64] [-report-ring 64] [-slo spec|off]
//	             [-diag-dir /var/lib/hesgx/diag]
//
// With -simd-params the server generates a batching-capable parameter set
// (prime plaintext modulus t ≡ 1 mod 2n) and the serving stack packs
// concurrent same-shape requests into CRT slot lanes of shared ciphertexts:
// one engine pass serves up to -lane-max requests. With the default
// (non-batching) parameters the lane stage disables itself and every
// request runs its own scalar pass.
//
// With -packed-conv (on top of -simd-params) the engine additionally plans
// the conv→act→pool prefix over slot-packed feature maps: a whole image
// rides in one ciphertext and the convolution runs as Galois rotations
// under keys the client uploads (or the enclave generates on first use).
//
// With -admin set, an HTTP observability endpoint serves Prometheus
// text-format metrics at /metrics, Go profiles under /debug/pprof/, the
// last -trace-ring request traces as Chrome trace JSON at /traces/last,
// per-stage SLO burn rates at /slo, and a queue/shed-rate readiness probe
// at /healthz. Unless -slo is "off", a background tracker samples the
// stage-latency histograms every 10s and grades them against the given
// (or default) objectives with multi-window burn-rate alerting.
//
// The server always runs the black-box diagnostics loop: a 1-second metric
// flight recorder ring, an anomaly monitor (shed-rate spikes, per-ECALL
// transition/paging excursions), and an event bus that SLO pages, the
// monitor's anomalies and wire faults publish into. With -diag-dir set,
// warning-or-worse events additionally trigger debounced, rate-limited
// postmortem bundles — self-contained tar.gz archives with the trigger, recent
// events, the metric window, flight reports, traces, profiles and build
// info — rendered offline by hesgx-diag. An on-demand bundle is always
// available at the admin endpoint's /debug/bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"hesgx/internal/admin"
	"hesgx/internal/core"
	"hesgx/internal/diag"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/slo"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
	"hesgx/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":7700", "listen address")
	modelPath := flag.String("model", "model.bin", "trained model path")
	calibrated := flag.Bool("calibrated", false, "inject calibrated SGX costs (default: zero-cost simulation)")
	workers := flag.Int("workers", 0, "concurrent inference workers (0: NumCPU)")
	queueDepth := flag.Int("queue", 0, "admission queue depth; full queue sheds load (0: default 64)")
	deadline := flag.Duration("deadline", 0, "per-request serving deadline (0: none)")
	simdParams := flag.Bool("simd-params", false, "use a batching-capable parameter set (prime t ≡ 1 mod 2n); required for slot-lane packing")
	packedConv := flag.Bool("packed-conv", false, "plan the conv→act→pool prefix over one-ciphertext slot-packed feature maps (needs -simd-params)")
	laneWindow := flag.Duration("lane-window", 0, "slot-lane packing window: how long a request waits for lane company (0: default 5ms)")
	laneMax := flag.Int("lane-max", 0, "max requests packed into one shared engine pass (0: default 64, clamped to the slot count)")
	laneMin := flag.Int("lane-min", 0, "fill floor below which an expired lane bucket falls back to scalar passes (0: default 2)")
	noLanes := flag.Bool("no-lanes", false, "disable slot-lane packing; every request runs its own engine pass")
	statsInterval := flag.Duration("stats-interval", 30*time.Second, "serving-stats log interval (0: off)")
	adminAddr := flag.String("admin", "", "admin endpoint address for /metrics, /debug/pprof, /traces/last, /inference/last, /healthz (empty: off)")
	traceRing := flag.Int("trace-ring", trace.DefaultBufferSize, "flight-recorder capacity: request traces retained for /traces/last")
	reportRing := flag.Int("report-ring", report.DefaultCapacity, "report-ring capacity: per-request flight reports retained for /inference/last")
	sloSpec := flag.String("slo", "", "per-stage latency objectives as name:metric:threshold:target,... (empty: defaults; \"off\": disabled)")
	diagDir := flag.String("diag-dir", "", "directory receiving anomaly-triggered postmortem bundles (empty: triggered captures off; /debug/bundle still serves on-demand)")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if bi, ok := debug.ReadBuildInfo(); ok {
		logger.Info("build info", "go", bi.GoVersion, "version", bi.Main.Version)
	}

	model, err := nn.LoadFile(*modelPath)
	if err != nil {
		logger.Error("loading model", "err", err)
		return 1
	}

	cost := sgx.ZeroCost()
	if *calibrated {
		cost = sgx.Calibrated()
	}
	platform, err := sgx.NewPlatform(cost)
	if err != nil {
		logger.Error("creating platform", "err", err)
		return 1
	}
	params, err := core.DefaultHybridParameters()
	if *simdParams {
		params, err = core.DefaultSIMDParameters()
	}
	if err != nil {
		logger.Error("parameters", "err", err)
		return 1
	}
	// One registry and one event bus thread through every stage: the
	// serving pipeline (and through it the enclave service's ECALL
	// counters), the wire server, the SLO tracker and the diagnostics loop
	// all publish into the same pair.
	reg := stats.NewRegistry()
	bus := diag.NewBus(diag.DefaultBusCapacity, reg)
	svc, err := core.NewEnclaveService(platform, params)
	if err != nil {
		logger.Error("launching enclave", "err", err)
		return 1
	}
	engine, err := core.NewEngine(svc, model, core.WithPackedConv(*packedConv))
	if err != nil {
		logger.Error("planning engine", "err", err)
		return 1
	}
	// One entry per enclave crossing or linear step of a request: a fused
	// activation+pool pair reads "01_act+02_pool".
	steps := engine.PlanInfo()
	var plan []string
	for _, step := range steps {
		if step.Fused && step.Kind == "pool" && len(plan) > 0 {
			plan[len(plan)-1] += "+" + step.Label
		} else {
			plan = append(plan, step.Label)
		}
	}
	d0, d1 := engine.ReplyRounding()
	logger.Info("hybrid plan", "stages", strings.Join(plan, " "),
		"reply_drop_c0", d0, "reply_drop_c1", d1, "upload_drop_c0", params.SeededDropBits())
	// Scalar-layout queries fold the map in front of each whole-map pool
	// ECALL the planner owns: coeff_in values per ciphertext in, and with
	// coeff_tail one ciphertext out for the FC behind it.
	for _, step := range steps {
		if step.CoeffIn > 0 {
			logger.Info("pool crossing plan",
				"step", step.Label,
				"one_crossing", step.Fused,
				"coeff_in", step.CoeffIn,
				"coeff_tail", step.CoeffTail,
				"coeff_tail_reason", step.CoeffTailReason,
				"budget_bits", fmt.Sprintf("%.2f", step.PredictedBudgetBits))
		}
	}
	if *packedConv {
		if info := engine.PackedInfo(); info.Active {
			logger.Info("packed convolution plan active",
				"prefix_steps", info.PrefixSteps,
				"conv_budget_bits", fmt.Sprintf("%.2f", info.ConvBudgetBits),
				"pool_budget_bits", fmt.Sprintf("%.2f", info.PoolBudgetBits),
				// Planned as one crossing: conv rotations → pool_unpack
				// (activating inside) → tail, for maps at or above the
				// fusion floor; otherwise activation, then pool_unpack.
				"one_crossing", steps[info.PrefixSteps-1].Fused,
				"coeff_tail", info.CoeffTail,
				"coeff_tail_reason", info.CoeffTailReason,
				"fc_budget_bits", fmt.Sprintf("%.2f", info.FCBudgetBits))
		} else {
			logger.Warn("packed convolution plan inactive; slot-packed queries will be rejected",
				"reason", info.Reason)
		}
	}
	logger.Info("encoding model weights into the homomorphic plaintext space",
		"weights", engine.EncodedWeightCount())
	if err := engine.EncodeWeights(); err != nil {
		logger.Error("encoding weights", "err", err)
		return 1
	}

	queueCapacity := *queueDepth
	if queueCapacity <= 0 {
		queueCapacity = serve.DefaultSchedulerConfig().QueueDepth
	}
	serviceOpts := []serve.Option{
		serve.WithSchedulerConfig(serve.SchedulerConfig{
			Workers:    *workers,
			QueueDepth: *queueDepth,
			Deadline:   *deadline,
		}),
		serve.WithLaneConfig(serve.LaneConfig{
			MaxLanes: *laneMax,
			MinLanes: *laneMin,
			Window:   *laneWindow,
		}),
		serve.WithTracer(trace.NewTracer(*traceRing)),
		serve.WithLogger(logger),
		serve.WithMetrics(reg),
	}
	if *noLanes {
		serviceOpts = append(serviceOpts, serve.WithoutLanes())
	}
	service := serve.NewService(engine, svc, serviceOpts...)

	// Every finished request trace folds into a per-layer flight report:
	// ring-buffered for /inference/last and re-exported as per-layer
	// latency/budget series on /metrics.
	reports := report.NewRecorder(*reportRing, service.Metrics)
	service.Tracer.SetOnFinish(reports.Observe)

	// Black-box diagnostics: the 1s flight recorder samples the registry
	// into a trailing ring, the monitor turns shed-rate and per-ECALL
	// transition/paging excursions into bus events, and the capturer turns
	// warning-or-worse events into debounced postmortem bundles.
	recorder := diag.NewRecorder(diag.RecorderConfig{Registry: reg})
	monitor := diag.NewMonitor(diag.MonitorConfig{Bus: bus})
	recorder.OnSample(monitor.Observe)
	capturer := diag.NewCapturer(bus, recorder, diag.CaptureConfig{Dir: *diagDir})
	capturer.AddSource(diag.ReportsSource(reports, 0))
	capturer.AddSource(diag.TracesSource(service.Tracer, 0))
	capturer.AddSource(diag.JSONSource("config.json", func() any {
		cfgDump := map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { cfgDump[f.Name] = f.Value.String() })
		return cfgDump
	}))

	// Per-stage SLO tracking: multi-window burn rates over the serving
	// latency histograms, surfaced at /slo and as slo_* metric series.
	var sloTracker *slo.Tracker
	if *sloSpec != "off" {
		objectives := slo.DefaultObjectives()
		if *sloSpec != "" {
			objectives, err = slo.ParseObjectives(*sloSpec)
			if err != nil {
				logger.Error("parsing -slo", "err", err)
				return 1
			}
		}
		sloTracker, err = slo.New(slo.Config{Registry: service.Metrics, Objectives: objectives, Events: bus})
		if err != nil {
			logger.Error("slo tracker", "err", err)
			return 1
		}
	}

	srv, err := wire.NewServer(svc, engine, logger,
		wire.WithService(service), wire.WithTracer(service.Tracer),
		wire.WithMetrics(service.Metrics), wire.WithEventBus(bus))
	if err != nil {
		logger.Error("creating server", "err", err)
		return 1
	}
	// Close is idempotent: the explicit shutdown path below closes the
	// service before the final snapshot; this defer covers error returns.
	defer service.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listening", "addr", *addr, "err", err)
		return 1
	}

	var adminSrv *admin.Server
	if *adminAddr != "" {
		handler := admin.Handler(admin.Config{
			Metrics:       service.Metrics,
			Tracer:        service.Tracer,
			Platform:      platform.Snapshot,
			QueueCapacity: queueCapacity,
			Reports:       reports,
			SLO:           sloTracker,
			Capturer:      capturer,
			Events:        bus,
		})
		adminSrv, err = admin.Start(*adminAddr, handler)
		if err != nil {
			logger.Error("starting admin endpoint", "err", err)
			return 1
		}
		logger.Info("admin endpoint ready", "addr", adminSrv.Addr())
	}

	m := svc.Enclave().Measurement()
	logger.Info("edge server ready",
		"addr", ln.Addr().String(),
		"enclave", svc.Enclave().Name(),
		"measurement", fmt.Sprintf("%x", m[:8]),
		"params", params.String(),
	)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if sloTracker != nil {
		go sloTracker.Run(ctx)
		tr := sloTracker
		capturer.AddSource(diag.JSONSource("slo.json", func() any { return tr.Status() }))
	}
	go recorder.Run(ctx)
	if *diagDir != "" {
		go capturer.Run(ctx)
		logger.Info("diagnostics capture armed", "dir", *diagDir)
	}

	if *statsInterval > 0 {
		go func() {
			tick := time.NewTicker(*statsInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					snap := platform.Snapshot()
					logger.Info("serving stats",
						"ecalls", snap.ECalls,
						"ocalls", snap.OCalls,
						"metrics", service.Metrics.String(),
					)
				}
			}
		}()
	}

	serveErr := srv.Serve(ctx, ln)

	// Orderly shutdown: drain the pipeline first so straggler batches
	// flush and their metrics land, then stop the admin listener, then
	// emit the final snapshot — shutdown always reports complete totals
	// even when no -stats-interval ticker ever fired.
	service.Close()
	if adminSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := adminSrv.Shutdown(sctx); err != nil {
			logger.Warn("admin shutdown", "err", err)
		}
		cancel()
	}
	snap := platform.Snapshot()
	logger.Info("final serving stats",
		"ecalls", snap.ECalls,
		"ocalls", snap.OCalls,
		"page_faults", snap.PageFaults,
		"injected_overhead", snap.InjectedOverhead,
		"metrics", service.Metrics.String(),
	)

	if serveErr != nil {
		logger.Error("serving", "err", serveErr)
		return 1
	}
	logger.Info("shut down cleanly")
	return 0
}
