// Package loadgen is the soak/load-generation harness: it drives a live
// hesgx edge server over TCP with a configurable mix of encrypted
// inference requests — closed-loop (a fixed fleet of always-busy clients)
// or open-loop (a fixed arrival rate, the shed-behaviour-honest mode) —
// streams a per-second status line, and grades the run against latency,
// shed-rate, and trace-completeness SLOs. cmd/hesgx-loadgen is the CLI;
// the soak tests and CI drive Run directly against an in-process selftest
// server.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/nn"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
	"hesgx/internal/wire"
)

// Shape is one entry of the request-shape mix.
type Shape struct {
	// C, H, W are the image dimensions (must match the served model).
	C, H, W int
	// Weight is the relative frequency of this shape in the mix.
	Weight float64
}

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// ParseShapes parses a shape-mix spec: "CxHxW[:weight][,...]", e.g.
// "1x8x8:4,1x16x16:1". Omitted weights default to 1.
func ParseShapes(spec string) ([]Shape, error) {
	var out []Shape
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		weight := 1.0
		if i := strings.IndexByte(part, ':'); i >= 0 {
			w, err := strconv.ParseFloat(part[i+1:], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("loadgen: shape %q: bad weight", part)
			}
			weight = w
			part = part[:i]
		}
		dims := strings.Split(part, "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("loadgen: shape %q: want CxHxW", part)
		}
		var s Shape
		for i, dst := range []*int{&s.C, &s.H, &s.W} {
			v, err := strconv.Atoi(dims[i])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("loadgen: shape %q: bad dimension %q", part, dims[i])
			}
			*dst = v
		}
		s.Weight = weight
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: no shapes in %q", spec)
	}
	return out, nil
}

// Config tunes one load-generation run.
type Config struct {
	// Addr is the edge server's TCP address.
	Addr string
	// Clients is the connection fleet size (default 4). In closed-loop
	// mode it is also the concurrency; in open-loop mode it bounds how
	// many arrivals can be in flight.
	Clients int
	// Rate selects open-loop mode when positive: arrivals are generated at
	// this many requests/second regardless of completions, and latency is
	// measured from the scheduled arrival (queueing in the generator
	// counts against the server, as a real open system would experience).
	// Zero selects closed-loop mode: every client issues its next request
	// the moment the previous one resolves.
	Rate float64
	// Duration bounds the run (default 10s).
	Duration time.Duration
	// Shapes is the request-shape mix (default 1x8x8 weight 1).
	Shapes []Shape
	// PixelScale is the fixed-point pixel scale (default 63).
	PixelScale uint64
	// Trace turns on distributed tracing: every request carries a
	// client-minted trace ID and the per-stage server latencies come back
	// in flight reports (default true via cmd; the zero value here is
	// untraced).
	Trace bool
	// StatusInterval is the cadence of the streamed status line (default
	// 1s; negative disables).
	StatusInterval time.Duration
	// Out receives the status stream (nil: discarded).
	Out io.Writer
	// Seed makes the shape mix and image contents reproducible (default 1).
	Seed uint64

	// SLOP50 / SLOP99 fail the run when the end-to-end latency quantile
	// exceeds them (0: unchecked).
	SLOP50, SLOP99 time.Duration
	// MaxShedRate fails the run when shed/(ok+shed) exceeds it; 0 demands
	// a shed-free run. Negative: unchecked.
	MaxShedRate float64
	// RequireJoined fails the run unless every traced request assembled a
	// fully-joined end-to-end trace (client spans + server serve/engine
	// spans under one trace ID). Implies nothing when Trace is off.
	RequireJoined bool
}

// Summary is the graded outcome of a run.
type Summary struct {
	Duration   time.Duration `json:"duration"`
	Sent       int64         `json:"sent"`
	OK         int64         `json:"ok"`
	Shed       int64         `json:"shed"`
	Failed     int64         `json:"failed"`
	Throughput float64       `json:"throughput_img_per_s"`
	P50        time.Duration `json:"p50"`
	P99        time.Duration `json:"p99"`
	Max        time.Duration `json:"max"`
	ShedRate   float64       `json:"shed_rate"`
	// MeanLanes is the mean server-side lane occupancy over traced
	// requests (0 when untraced).
	MeanLanes float64 `json:"mean_lanes"`
	// JoinedTraces counts traced requests whose assembled trace contained
	// both client-side and server-side spans.
	JoinedTraces int64 `json:"joined_traces"`
	// ServerQueueP99MS / ServerLaneWaitP99MS are per-stage p99s from the
	// flight reports (0 when untraced).
	ServerQueueP99MS    float64 `json:"server_queue_p99_ms"`
	ServerLaneWaitP99MS float64 `json:"server_lane_wait_p99_ms"`
	// Violations lists every SLO the run broke; empty means the run
	// passed.
	Violations []string `json:"violations,omitempty"`
	// FirstError is the first outright failure's message (diagnosis aid;
	// empty when nothing failed).
	FirstError string `json:"first_error,omitempty"`
}

// result is one request's outcome flowing to the aggregator.
type result struct {
	latency time.Duration
	shed    bool
	failed  bool
	err     error
	// traced fields (zero when tracing is off):
	joined      bool
	lanes       int
	queueWaitMS float64
	laneWaitMS  float64
}

// aggregator folds results and answers status/summary queries.
type aggregator struct {
	mu        sync.Mutex
	sent      int64
	ok        int64
	shed      int64
	failed    int64
	joined    int64
	traced    int64
	laneSum   float64
	laneN     int64
	latency   *stats.Histogram
	queueMS   *stats.Histogram
	laneMS    *stats.Histogram
	firstErr  error
	windowOK  int64 // completions since the last status line
	windowBad int64 // sheds+failures since the last status line
}

func newAggregator() *aggregator {
	return &aggregator{latency: &stats.Histogram{}, queueMS: &stats.Histogram{}, laneMS: &stats.Histogram{}}
}

func (a *aggregator) record(r result) {
	a.mu.Lock()
	a.sent++
	switch {
	case r.shed:
		a.shed++
		a.windowBad++
	case r.failed:
		a.failed++
		a.windowBad++
		if a.firstErr == nil && r.err != nil {
			a.firstErr = r.err
		}
	default:
		a.ok++
		a.windowOK++
		a.latency.Observe(float64(r.latency.Microseconds()) / 1000.0)
	}
	if r.lanes > 0 {
		a.laneSum += float64(r.lanes)
		a.laneN++
	}
	if !r.shed && !r.failed {
		if r.queueWaitMS > 0 {
			a.queueMS.Observe(r.queueWaitMS)
		}
		if r.laneWaitMS > 0 {
			a.laneMS.Observe(r.laneWaitMS)
		}
		if r.joined {
			a.joined++
		}
	}
	a.mu.Unlock()
}

func (a *aggregator) recordTraced() {
	a.mu.Lock()
	a.traced++
	a.mu.Unlock()
}

// statusLine renders one per-second progress line and resets the window
// counters.
func (a *aggregator) statusLine(interval time.Duration) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := a.latency.Snapshot()
	shedRate := 0.0
	if a.windowOK+a.windowBad > 0 {
		shedRate = float64(a.windowBad) / float64(a.windowOK+a.windowBad)
	}
	meanLanes := 0.0
	if a.laneN > 0 {
		meanLanes = a.laneSum / float64(a.laneN)
	}
	line := fmt.Sprintf("%8.1f img/s  p50 %8.2fms  p99 %8.2fms  shed %5.1f%%  lanes %5.2f  ok %d shed %d fail %d",
		float64(a.windowOK)/interval.Seconds(),
		snap.Quantile(0.5), snap.Quantile(0.99),
		100*shedRate, meanLanes, a.ok, a.shed, a.failed)
	a.windowOK, a.windowBad = 0, 0
	return line
}

func (a *aggregator) summary(cfg Config, elapsed time.Duration) *Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := a.latency.Snapshot()
	s := &Summary{
		Duration:     elapsed,
		Sent:         a.sent,
		OK:           a.ok,
		Shed:         a.shed,
		Failed:       a.failed,
		Throughput:   float64(a.ok) / elapsed.Seconds(),
		P50:          time.Duration(snap.Quantile(0.5) * float64(time.Millisecond)),
		P99:          time.Duration(snap.Quantile(0.99) * float64(time.Millisecond)),
		Max:          time.Duration(snap.Max * float64(time.Millisecond)),
		JoinedTraces: a.joined,
	}
	if a.ok == 0 {
		s.Max = 0
	}
	if a.ok+a.shed > 0 {
		s.ShedRate = float64(a.shed) / float64(a.ok+a.shed)
	}
	if a.laneN > 0 {
		s.MeanLanes = a.laneSum / float64(a.laneN)
	}
	if qs := a.queueMS.Snapshot(); !qs.Empty() {
		s.ServerQueueP99MS = qs.Quantile(0.99)
	}
	if ls := a.laneMS.Snapshot(); !ls.Empty() {
		s.ServerLaneWaitP99MS = ls.Quantile(0.99)
	}
	if a.firstErr != nil {
		s.FirstError = a.firstErr.Error()
	}
	// Grade the run.
	if a.failed > 0 {
		v := fmt.Sprintf("%d requests failed outright", a.failed)
		if s.FirstError != "" {
			v += " (first: " + s.FirstError + ")"
		}
		s.Violations = append(s.Violations, v)
	}
	if cfg.SLOP50 > 0 && s.P50 > cfg.SLOP50 {
		s.Violations = append(s.Violations, fmt.Sprintf("p50 %v exceeds SLO %v", s.P50, cfg.SLOP50))
	}
	if cfg.SLOP99 > 0 && s.P99 > cfg.SLOP99 {
		s.Violations = append(s.Violations, fmt.Sprintf("p99 %v exceeds SLO %v", s.P99, cfg.SLOP99))
	}
	if cfg.MaxShedRate >= 0 && s.ShedRate > cfg.MaxShedRate {
		s.Violations = append(s.Violations, fmt.Sprintf("shed rate %.3f exceeds limit %.3f", s.ShedRate, cfg.MaxShedRate))
	}
	if cfg.Trace && cfg.RequireJoined && a.joined < a.ok {
		s.Violations = append(s.Violations,
			fmt.Sprintf("only %d/%d successful traced requests assembled a joined end-to-end trace", a.joined, a.ok))
	}
	return s
}

// joinedTrace reports whether an assembled trace carries both sides of the
// wire: client-category spans and server-side serve or engine spans.
func joinedTrace(tr *trace.Trace) bool {
	if tr == nil {
		return false
	}
	var client, server bool
	for _, sp := range tr.Spans() {
		switch sp.Cat {
		case "client":
			client = true
		case "serve", "engine", "sgx":
			server = true
		}
	}
	return client && server
}

// Run executes one load-generation run and returns its graded summary. An
// error means the run itself could not execute (dial/attest failure);
// SLO violations are reported in Summary.Violations, not as errors.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("loadgen: Config.Addr is required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if len(cfg.Shapes) == 0 {
		cfg.Shapes = []Shape{{C: 1, H: 8, W: 8, Weight: 1}}
	}
	if cfg.PixelScale == 0 {
		cfg.PixelScale = 63
	}
	if cfg.StatusInterval == 0 {
		cfg.StatusInterval = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	// Dial and attest the fleet before the clock starts: connection setup
	// is not the phenomenon under test.
	clients := make([]*wire.Client, cfg.Clients)
	for i := range clients {
		var opts []wire.ClientOption
		if cfg.Trace {
			opts = append(opts, wire.WithClientTracer(nil))
		}
		c, err := wire.Dial(cfg.Addr, attest.NewService(), opts...)
		if err != nil {
			return nil, fmt.Errorf("loadgen: client %d: %w", i, err)
		}
		defer c.Close()
		if err := c.FetchTrustBundle(); err != nil {
			return nil, fmt.Errorf("loadgen: client %d trust bundle: %w", i, err)
		}
		if err := c.Attest(); err != nil {
			return nil, fmt.Errorf("loadgen: client %d attest: %w", i, err)
		}
		clients[i] = c
	}

	agg := newAggregator()
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()

	// Status streamer.
	var statusWG sync.WaitGroup
	if cfg.StatusInterval > 0 && cfg.Out != nil {
		statusWG.Add(1)
		go func() {
			defer statusWG.Done()
			tick := time.NewTicker(cfg.StatusInterval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					fmt.Fprintln(cfg.Out, agg.statusLine(cfg.StatusInterval))
				}
			}
		}()
	}

	// Open-loop arrivals: a ticker feeds timestamps into a bounded channel;
	// a full channel means the generator itself is the bottleneck and the
	// arrival is dropped (counted as shed against the run, honestly — an
	// open system would have queued it against the server).
	var arrivals chan time.Time
	if cfg.Rate > 0 {
		arrivals = make(chan time.Time, cfg.Clients*4)
		statusWG.Add(1)
		go func() {
			defer statusWG.Done()
			defer close(arrivals)
			period := time.Duration(float64(time.Second) / cfg.Rate)
			if period <= 0 {
				period = time.Microsecond
			}
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case t := <-tick.C:
					select {
					case arrivals <- t:
					default:
						agg.record(result{shed: true})
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(id int, c *wire.Client) {
			defer wg.Done()
			rng := mrand.New(mrand.NewPCG(cfg.Seed, uint64(id)))
			for {
				var arrived time.Time
				if arrivals != nil {
					var ok bool
					select {
					case <-runCtx.Done():
						return
					case arrived, ok = <-arrivals:
						if !ok {
							return
						}
					}
				} else {
					if runCtx.Err() != nil {
						return
					}
					arrived = time.Now()
				}
				agg.record(runOne(c, cfg, rng, arrived, agg))
			}
		}(i, c)
	}
	wg.Wait()
	cancel()
	statusWG.Wait()
	return agg.summary(cfg, time.Since(start)), nil
}

// runOne issues a single inference and classifies its outcome.
func runOne(c *wire.Client, cfg Config, rng *mrand.Rand, arrived time.Time, agg *aggregator) result {
	shape := pickShape(cfg.Shapes, rng)
	img := nn.NewTensor(shape.C, shape.H, shape.W)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	if cfg.Trace {
		agg.recordTraced()
	}
	_, err := c.Infer(img, cfg.PixelScale)
	r := result{latency: time.Since(arrived)}
	if err != nil {
		var serr *wire.ServerError
		if errors.As(err, &serr) && (serr.Code == wire.CodeOverloaded || serr.Code == wire.CodeDeadline) {
			r.shed = true
		} else {
			r.failed = true
			r.err = err
		}
		return r
	}
	if cfg.Trace {
		r.joined = joinedTrace(c.LastTrace())
		if rep := c.LastReport(); rep != nil {
			r.lanes = rep.Lanes
			r.queueWaitMS = rep.QueueWaitMS
			r.laneWaitMS = rep.LaneWaitMS
		}
	}
	return r
}

// pickShape draws one shape from the weighted mix.
func pickShape(shapes []Shape, rng *mrand.Rand) Shape {
	if len(shapes) == 1 {
		return shapes[0]
	}
	var total float64
	for _, s := range shapes {
		total += s.Weight
	}
	x := rng.Float64() * total
	for _, s := range shapes {
		if x < s.Weight {
			return s
		}
		x -= s.Weight
	}
	return shapes[len(shapes)-1]
}
