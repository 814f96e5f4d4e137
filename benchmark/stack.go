package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand/v2"
	"net"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/wire"
)

// wireFrameHeaderBytes is wire's frame header (type byte + u32 length),
// which the server counts into wire.bytes_in/out on top of each payload.
const wireFrameHeaderBytes = 5

// setupTimes splits setup_s by stage (the setup.* per-layer metrics).
type setupTimes struct {
	params, enclaveKeygen, encodeWeights time.Duration
	attest, galoisKeys, warmup           time.Duration
	galoisUploadBytes                    int64
}

// stack is the real serving stack stood up in-process: calibrated SGX
// platform, enclave service, planned engine, serve.Service and a wire
// server on loopback TCP — the production wiring of cmd/hesgx-server.
type stack struct {
	rc       runConfig
	params   he.Parameters
	platform *sgx.Platform
	svc      *core.EnclaveService
	model    *nn.Network
	engine   *core.HybridEngine
	service  *serve.Service
	metrics  *stats.Registry
	addr     string

	cancel context.CancelFunc
	done   chan error

	times setupTimes
}

// newEngine plans and weight-encodes an engine over the stack's enclave.
func (s *stack) newEngine() (*core.HybridEngine, error) {
	m := s.rc.model
	engine, err := core.NewEngine(s.svc, s.model,
		core.WithScales(m.pixel, m.weight, m.act), core.WithPackedConv(s.rc.wl.packed))
	if err != nil {
		return nil, fmt.Errorf("planning engine: %w", err)
	}
	if got := engine.PackedInfo(); got.Active != s.rc.wl.packed {
		return nil, fmt.Errorf("packed plan active=%v, workload wants %v (%s)", got.Active, s.rc.wl.packed, got.Reason)
	}
	if err := engine.EncodeWeights(); err != nil {
		return nil, fmt.Errorf("encoding weights: %w", err)
	}
	return engine, nil
}

// newStack builds the server half and starts listening on 127.0.0.1:0.
func newStack(rc runConfig) (*stack, error) {
	s := &stack{rc: rc, metrics: stats.NewRegistry()}
	wl, m := rc.wl, rc.model

	start := time.Now()
	t, err := core.SIMDBatchingModulus(wl.n, m.tBits)
	if err != nil {
		return nil, fmt.Errorf("batching modulus: %w", err)
	}
	if s.params, err = he.DefaultParametersLowLift(wl.n, t); err != nil {
		return nil, fmt.Errorf("parameters: %w", err)
	}
	s.times.params = time.Since(start)

	start = time.Now()
	if s.platform, err = sgx.NewPlatform(rc.cost, sgx.WithJitterSeed(jitterSeed)); err != nil {
		return nil, err
	}
	s.svc, err = core.NewEnclaveService(s.platform, s.params,
		core.WithKeySource(ring.NewSeededSource(enclaveKeySrc)))
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	s.times.enclaveKeygen = time.Since(start)

	start = time.Now()
	s.model = m.build(mrand.New(mrand.NewPCG(weightSeedHi, weightSeedLo)))
	if s.engine, err = s.newEngine(); err != nil {
		return nil, err
	}
	s.times.encodeWeights = time.Since(start)

	opts := []serve.Option{serve.WithMetrics(s.metrics)}
	if wl.lanes {
		// MaxLanes = MinLanes = clients: a round flushes the instant its
		// last client arrives, and a lone request can only fall back after
		// the window — which the path assertion then reports as a failure.
		opts = append(opts, serve.WithLaneConfig(serve.LaneConfig{
			MaxLanes: wl.clients, MinLanes: wl.clients, Window: 2 * time.Second}))
	} else {
		opts = append(opts, serve.WithoutLanes())
	}
	s.service = serve.NewService(s.engine, s.svc, opts...)
	srv, err := wire.NewServer(s.svc, s.engine, slog.New(slog.NewTextHandler(io.Discard, nil)),
		wire.WithService(s.service), wire.WithTracer(s.service.Tracer), wire.WithMetrics(s.metrics))
	if err != nil {
		s.service.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.service.Close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// close stops the server and returns once every connection handler has
// drained, so registry reads after it see every counted byte.
func (s *stack) close() error {
	s.cancel()
	err := <-s.done
	s.service.Close()
	return err
}

// rotationSteps is the Galois key set a client derives from the model
// geometry it queries (the pool window offsets are a subset).
func (m modelSpec) rotationSteps() []int {
	var steps []int
	for ky := 0; ky < m.kernel; ky++ {
		for kx := 0; kx < m.kernel; kx++ {
			if st := ky*m.width + kx; st != 0 {
				steps = append(steps, st)
			}
		}
	}
	return steps
}

// dial connects one vehicle: TCP connect, trust bundle, attested key
// exchange and, on packed workloads, Galois key generation and upload.
func (s *stack) dial(opts ...wire.ClientOption) (*wire.Client, error) {
	c, err := wire.Dial(s.addr, attest.NewService(), opts...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := c.FetchTrustBundle(); err != nil {
		c.Close()
		return nil, fmt.Errorf("trust bundle: %w", err)
	}
	if err := c.Attest(); err != nil {
		c.Close()
		return nil, fmt.Errorf("attestation: %w", err)
	}
	s.times.attest += time.Since(start)
	if s.rc.wl.packed {
		start = time.Now()
		before := s.metrics.Counter("wire.bytes_in").Value()
		if err := c.UploadGaloisKeys(s.rc.model.rotationSteps(), 0); err != nil {
			c.Close()
			return nil, fmt.Errorf("galois key upload: %w", err)
		}
		// The ack is written after the request frame was counted.
		s.times.galoisUploadBytes += s.metrics.Counter("wire.bytes_in").Value() - before
		s.times.galoisKeys += time.Since(start)
	}
	return c, nil
}

// infer submits one image on the workload's layout.
func (s *stack) infer(c *wire.Client, img *nn.Tensor) ([]float64, error) {
	if s.rc.wl.packed {
		return c.InferPacked(img, s.rc.model.pixel)
	}
	return c.Infer(img, s.rc.model.pixel)
}

// exact reports whether logits equal the plaintext integer oracle bit for
// bit (the client divides the decrypted integers by the same scale).
func (s *stack) exact(img *nn.Tensor, logits []float64) (bool, error) {
	want, err := s.engine.ReferenceForward(img)
	if err != nil {
		return false, err
	}
	if len(logits) != len(want) {
		return false, nil
	}
	scale := s.engine.OutScale()
	for i, v := range want {
		if logits[i] != float64(v)/scale {
			return false, nil
		}
	}
	return true, nil
}

// waitReplies blocks until the server has accounted n inference replies.
// wire adds to bytes_out just after the reply frame is written, so a
// client can return from Infer a moment before its reply is counted.
func (s *stack) waitReplies(n uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Histogram("wire.reply_bytes").Snapshot().Count < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("server accounted %d of %d replies",
				s.metrics.Histogram("wire.reply_bytes").Snapshot().Count, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// imageGen derives one client's image stream from the workload seed.
type imageGen struct {
	rng *mrand.Rand
	m   modelSpec
}

func newImageGen(seed uint64, client int, m modelSpec) *imageGen {
	return &imageGen{rng: mrand.New(mrand.NewPCG(seed, uint64(client)+1)), m: m}
}

func (g *imageGen) next() *nn.Tensor {
	img := nn.NewTensor(g.m.channels, g.m.height, g.m.width)
	for i := range img.Data {
		img.Data[i] = g.rng.Float64()
	}
	return img
}
