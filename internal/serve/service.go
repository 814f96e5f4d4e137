package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// Option customizes Service construction.
type Option func(*options)

type options struct {
	scheduler    SchedulerConfig
	lanes        LaneConfig
	disableLanes bool
	metrics      *stats.Registry
	tracer       *trace.Tracer
	logger       *slog.Logger
}

// WithSchedulerConfig tunes the admission scheduler (workers, queue depth,
// default deadline).
func WithSchedulerConfig(cfg SchedulerConfig) Option {
	return func(o *options) { o.scheduler = cfg }
}

// WithLaneConfig tunes the slot-lane packing admission stage.
func WithLaneConfig(cfg LaneConfig) Option {
	return func(o *options) { o.lanes = cfg }
}

// WithoutLanes disables the lane-packing admission stage: every request
// runs a scalar engine pass of its own.
func WithoutLanes() Option {
	return func(o *options) { o.disableLanes = true }
}

// WithMetrics shares a registry across every serving stage (nil: a new
// registry is created).
func WithMetrics(reg *stats.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// WithTracer retains per-request span traces (nil: a tracer with the
// default ring-buffer size is created).
func WithTracer(tr *trace.Tracer) Option {
	return func(o *options) { o.tracer = tr }
}

// WithLogger receives shed/expiry/flush failure records (nil: silent).
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.logger = l }
}

// LaneConfig tunes the slot-lane packing admission stage.
type LaneConfig struct {
	// MaxLanes caps how many requests share one packed engine pass
	// (default 64). It is clamped to the parameter set's slot count.
	MaxLanes int
	// MinLanes is the fill floor: a bucket that reaches its flush window
	// with fewer waiters falls back to scalar passes instead of paying the
	// pack/demux repack for too little sharing (default 2).
	MinLanes int
	// Window bounds how long the first request in a bucket waits for
	// company before the bucket flushes (default 5ms) — the fill-or-
	// deadline policy's deadline half.
	Window time.Duration
}

// DefaultLaneConfig returns the serving defaults.
func DefaultLaneConfig() LaneConfig {
	return LaneConfig{MaxLanes: 64, MinLanes: 2, Window: 5 * time.Millisecond}
}

// Request is one inference submission: the encrypted image plus the serving
// metadata the scheduler works with. Whether the request runs in its own
// scalar engine pass or shares a slot-lane-packed pass with other requests
// is an internal scheduling decision; callers only see the Result.
type Request struct {
	// Image is the encrypted input. Scalar-encoded images are eligible for
	// lane packing; an image the caller already slot-packed
	// (Image.Lanes > 1, from Client.EncryptImages) bypasses the packer and
	// runs one engine pass carrying the caller's own lanes.
	Image *core.CipherImage
	// Deadline optionally bounds the whole serving path (queue wait
	// included). Zero means the scheduler's default deadline applies.
	Deadline time.Time
}

// Execution modes reported in Result.Mode.
const (
	// ModeScalar: the request ran its own engine pass.
	ModeScalar = "scalar"
	// ModeLane: the request shared a slot-lane-packed engine pass.
	ModeLane = "lane"
	// ModePacked: the request arrived slot-packed (one ciphertext per
	// feature-map channel, Client.EncryptImagePacked) and ran the engine's
	// rotation-keyed packed prefix.
	ModePacked = "packed"
)

// Result is one inference outcome.
type Result struct {
	// Logits are the encrypted class scores — scalar ciphertexts for this
	// request's lane, or the caller's own packed ciphertexts when the
	// request arrived pre-packed.
	Logits []*he.Ciphertext
	// OutScale is the fixed-point scale of the logits.
	OutScale float64
	// Mode records how the request executed (ModeScalar or ModeLane).
	Mode string
	// Lanes is how many requests shared the engine pass (1 for scalar).
	Lanes int
	// Lane is this request's slot index within the shared pass (0 for
	// scalar; -1 when the caller owns all lanes of a pre-packed image).
	Lane int
}

// Service is the serving surface of the edge server: one Infer entrypoint
// over the full stack — lane packer, admission scheduler, hybrid engine,
// enclave. Construction wires the stages; options tune them.
type Service struct {
	sched   *Scheduler
	lanes   *lanePacker // nil when lanes are disabled or unsupported
	Metrics *stats.Registry
	Tracer  *trace.Tracer
	logger  *slog.Logger
}

// NewService wires engine and its enclave service into a serving stack:
// per-layer engine metrics and spans, per-ECALL cost attribution, the
// admission scheduler, and — when the parameter set supports CRT slot
// batching — the lane packer that merges concurrent scalar requests into
// shared slot-packed engine passes. With a non-batching plaintext modulus
// the lane stage disables itself and every request runs scalar, so one
// construction works across parameter tiers. The engine keeps calling the
// enclave service it was built with; svc must be that service.
func NewService(engine *core.HybridEngine, svc *core.EnclaveService, opts ...Option) *Service {
	o := options{scheduler: SchedulerConfig{}, lanes: DefaultLaneConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	reg := o.metrics
	if reg == nil {
		reg = stats.NewRegistry()
	}
	tracer := o.tracer
	if tracer == nil {
		tracer = trace.NewTracer(trace.DefaultBufferSize)
	}
	logger := o.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	engine.SetMetrics(reg)
	svc.SetMetrics(reg)
	s := &Service{Metrics: reg, Tracer: tracer, logger: logger}
	scfg := o.scheduler
	scfg.Metrics = reg
	scfg.Logger = o.logger
	s.sched = NewScheduler(engine, scfg)

	if !o.disableLanes {
		slots, err := core.SlotCapacity(svc.Params())
		if err != nil {
			// Non-batching modulus: lane packing is impossible, serve scalar.
			reg.Gauge("serve.lanes.enabled").Set(0)
			logger.Info("lane packing disabled: parameters do not support slot batching", "err", err)
		} else {
			lcfg := o.lanes
			def := DefaultLaneConfig()
			if lcfg.MaxLanes <= 0 {
				lcfg.MaxLanes = def.MaxLanes
			}
			if lcfg.MaxLanes > slots {
				lcfg.MaxLanes = slots
			}
			if lcfg.MinLanes < 2 {
				lcfg.MinLanes = def.MinLanes
			}
			if lcfg.MinLanes > lcfg.MaxLanes {
				lcfg.MinLanes = lcfg.MaxLanes
			}
			if lcfg.Window <= 0 {
				lcfg.Window = def.Window
			}
			reg.Gauge("serve.lanes.enabled").Set(1)
			s.lanes = newLanePacker(svc, s.sched, lcfg, reg, logger)
		}
	}
	return s
}

// Infer submits one request through the serving stack. Lane vs scalar
// execution is decided here: scalar-encoded images join the lane packer
// when it is enabled (falling back to a scalar pass under low load),
// pre-packed images go straight to the scheduler, and everything else runs
// scalar. If the caller did not attach a request trace (the wire server
// does), the service starts one so direct users get the same
// flight-recorder coverage.
func (s *Service) Infer(ctx context.Context, req Request) (res *Result, err error) {
	img := req.Image
	if img == nil || len(img.CTs) == 0 {
		return nil, fmt.Errorf("serve: empty request image")
	}
	if trace.FromContext(ctx) == nil {
		tr := s.Tracer.Start("infer")
		ctx = trace.With(ctx, tr)
		defer s.Tracer.Finish(tr)
	}
	// Whole-pipeline stage timer (lane wait + queue wait + engine) for the
	// request SLO, with the trace ID as exemplar. Failures are excluded: the
	// error paths (shed, deadline miss) have stage timers of their own, and a
	// fast rejection would otherwise count as a "good" latency event.
	start := time.Now()
	defer func() {
		if err == nil {
			s.Metrics.ObserveHistogramExemplar("serve.request.total_ms",
				float64(time.Since(start).Microseconds())/1000.0, trace.ID(ctx))
		}
	}()
	if !req.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.Deadline)
		defer cancel()
	}
	if img.Packed {
		// Slot-packed feature maps are incompatible with lane packing (both
		// claim the slot dimension): straight to the scheduler, where the
		// engine's rotation-keyed prefix runs them.
		bctx, span := trace.StartSpan(ctx, "packed.image", "serve")
		res, err := s.sched.Infer(bctx, img)
		span.End()
		if err != nil {
			return nil, err
		}
		return &Result{Logits: res.Logits, OutScale: res.OutScale, Mode: ModePacked, Lanes: 1}, nil
	}
	if img.Lanes > 1 {
		// The caller packed its own batch (Client.EncryptImages): one engine
		// pass, caller-owned lanes. The span's lanes arg feeds the flight
		// report's occupancy attribution.
		bctx, span := trace.StartSpan(ctx, "lane.batch", "serve")
		res, err := s.sched.Infer(bctx, img)
		span.Arg("lanes", float64(img.Lanes)).End()
		if err != nil {
			return nil, err
		}
		return &Result{Logits: res.Logits, OutScale: res.OutScale, Mode: ModeLane, Lanes: img.Lanes, Lane: -1}, nil
	}
	if s.lanes != nil {
		return s.lanes.infer(ctx, img)
	}
	sres, err := s.sched.Infer(ctx, img)
	if err != nil {
		return nil, err
	}
	return &Result{Logits: sres.Logits, OutScale: sres.OutScale, Mode: ModeScalar, Lanes: 1}, nil
}

// Close shuts the service down: the lane packer flushes pending buckets,
// then the scheduler stops admitting and drains.
func (s *Service) Close() {
	if s.lanes != nil {
		s.lanes.Close()
	}
	s.sched.Close()
}
