package serve

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// Scheduler admission errors.
var (
	// ErrQueueFull reports backpressure: the bounded admission queue is
	// at capacity and the job was rejected immediately rather than queued
	// into unbounded memory.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed reports a scheduler that has shut down.
	ErrClosed = errors.New("serve: scheduler closed")
)

// InferBackend is the inference executor the scheduler drives —
// *core.HybridEngine in production, fakes in tests.
type InferBackend interface {
	InferContext(ctx context.Context, img *core.CipherImage) (*core.InferenceResult, error)
}

// SchedulerConfig tunes the serving scheduler.
type SchedulerConfig struct {
	// Workers is the number of concurrent inferences (default NumCPU).
	// Past the point where the CPUs or the enclave saturate, more workers
	// only add contention.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). A full
	// queue rejects new jobs with ErrQueueFull — load sheds at admission
	// instead of stacking latency.
	QueueDepth int
	// Deadline is the default per-job deadline applied when the caller's
	// context has none (0: no default). Jobs whose deadline expires while
	// queued are dropped without ever entering the enclave.
	Deadline time.Duration
	// Metrics receives queue/job counters and latency samples (nil: none).
	Metrics *stats.Registry
	// Logger receives structured records for shed and expired jobs with
	// the request's trace ID (nil: silent).
	Logger *slog.Logger
}

// DefaultSchedulerConfig returns the serving defaults.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{Workers: runtime.NumCPU(), QueueDepth: 64}
}

// jobResult carries an inference outcome to the submitting goroutine.
type jobResult struct {
	res *core.InferenceResult
	err error
}

// job is one admitted inference request.
type job struct {
	ctx      context.Context
	img      *core.CipherImage
	res      chan jobResult // buffered; workers never block on delivery
	enqueued time.Time
	// qspan traces the queue wait: opened at submission, closed when a
	// worker picks the job up (or it expires in the queue).
	qspan *trace.SpanHandle
}

// Scheduler admits inference jobs through a bounded queue and runs them on
// a fixed worker pool; each job is one engine pass with its own ECALLs.
type Scheduler struct {
	backend  InferBackend
	queue    chan *job
	deadline time.Duration
	metrics  *stats.Registry
	logger   *slog.Logger

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewScheduler starts a scheduler over backend. Zero config fields fall
// back to DefaultSchedulerConfig.
func NewScheduler(backend InferBackend, cfg SchedulerConfig) *Scheduler {
	def := DefaultSchedulerConfig()
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Scheduler{
		backend:  backend,
		queue:    make(chan *job, cfg.QueueDepth),
		deadline: cfg.Deadline,
		metrics:  cfg.Metrics,
		logger:   cfg.Logger,
		closed:   make(chan struct{}),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Infer submits an encrypted image and blocks until the result, the
// caller's context, or the per-job deadline resolves it. Admission is
// non-blocking: a full queue returns ErrQueueFull immediately.
func (s *Scheduler) Infer(ctx context.Context, img *core.CipherImage) (*core.InferenceResult, error) {
	if s.deadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.deadline)
			defer cancel()
		}
	}
	// queue.wait is a leaf span: the job keeps the submitter's context, so
	// the inference run traces as its sibling, not its child.
	_, qspan := trace.StartSpan(ctx, "queue.wait", "serve")
	j := &job{ctx: ctx, img: img, res: make(chan jobResult, 1), enqueued: time.Now(), qspan: qspan}

	select {
	case <-s.closed:
		qspan.Arg("rejected", 1).End()
		return nil, ErrClosed
	default:
	}
	select {
	case s.queue <- j:
		s.metrics.Counter("serve.jobs.submitted").Inc()
		s.metrics.Gauge("serve.queue.depth").Set(int64(len(s.queue)))
	default:
		s.metrics.Counter("serve.jobs.rejected").Inc()
		// Stage timer for the SLO tracker: how long the request lived before
		// being shed, with its trace ID as the exemplar.
		s.metrics.ObserveHistogramExemplar("serve.stage.shed_ms",
			float64(time.Since(j.enqueued).Microseconds())/1000.0, trace.ID(ctx))
		qspan.Arg("rejected", 1).End()
		s.logger.Warn("request shed at admission",
			"reason", "queue_full",
			"queue_depth", cap(s.queue),
			"trace_id", trace.ID(ctx))
		return nil, ErrQueueFull
	}

	select {
	case r := <-j.res:
		return r.res, r.err
	case <-ctx.Done():
		// The worker sees the same context: if the job is still queued it
		// is skipped; if it is running, the engine abandons it at the next
		// step or enclave boundary.
		return nil, ctx.Err()
	}
}

// worker executes queued jobs until shutdown.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

// run executes one job and delivers its result.
func (s *Scheduler) run(j *job) {
	s.metrics.Gauge("serve.queue.depth").Set(int64(len(s.queue)))
	queueWaitMS := float64(time.Since(j.enqueued).Microseconds()) / 1000.0
	s.metrics.ObserveHistogramExemplar("serve.job.queue_wait_ms", queueWaitMS, trace.ID(j.ctx))
	if err := j.ctx.Err(); err != nil {
		// Deadline or disconnect while queued: never enter the enclave.
		s.metrics.Counter("serve.jobs.expired").Inc()
		s.metrics.ObserveHistogramExemplar("serve.stage.deadline_miss_ms", queueWaitMS, trace.ID(j.ctx))
		j.qspan.Arg("expired", 1).End()
		s.logger.Warn("queued request expired before running",
			"queue_wait_ms", queueWaitMS,
			"err", err,
			"trace_id", trace.ID(j.ctx))
		j.res <- jobResult{err: err}
		return
	}
	j.qspan.End()
	s.metrics.Gauge("serve.jobs.inflight").Add(1)
	ictx, ispan := trace.StartSpan(j.ctx, "infer.run", "serve")
	start := time.Now()
	res, err := s.backend.InferContext(ictx, j.img)
	ispan.End()
	s.metrics.Gauge("serve.jobs.inflight").Add(-1)
	if err != nil {
		s.metrics.Counter("serve.jobs.failed").Inc()
	} else {
		s.metrics.Counter("serve.jobs.completed").Inc()
		s.metrics.ObserveHistogram("serve.job.latency_ms", float64(time.Since(start).Microseconds())/1000.0)
	}
	j.res <- jobResult{res: res, err: err}
}

// Close stops the workers, fails jobs still waiting in the queue with
// ErrClosed, and waits for in-flight inferences to finish.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.wg.Wait()
		for {
			select {
			case j := <-s.queue:
				j.qspan.Arg("closed", 1).End()
				j.res <- jobResult{err: ErrClosed}
			default:
				return
			}
		}
	})
}
