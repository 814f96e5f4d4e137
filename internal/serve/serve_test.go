package serve

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// --- Scheduler unit tests over a fake backend ---

// fakeBackend blocks every inference until released.
type fakeBackend struct {
	release chan struct{}
	runs    atomic.Int64
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{release: make(chan struct{})}
}

func (f *fakeBackend) InferContext(ctx context.Context, img *core.CipherImage) (*core.InferenceResult, error) {
	f.runs.Add(1)
	select {
	case <-f.release:
		return &core.InferenceResult{OutScale: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitForCounter(t *testing.T, reg *stats.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, reg.Counter(name).Value())
}

func TestSchedulerRejectsWhenQueueFull(t *testing.T) {
	backend := newFakeBackend()
	reg := stats.NewRegistry()
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 1, Metrics: reg})
	defer func() { close(backend.release); s.Close() }()

	img := &core.CipherImage{}
	errs := make(chan error, 2)
	// First job occupies the lone worker...
	go func() { _, err := s.Infer(context.Background(), img); errs <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for backend.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// ...second fills the queue...
	go func() { _, err := s.Infer(context.Background(), img); errs <- err }()
	waitForCounter(t, reg, "serve.jobs.submitted", 2)
	// ...third must be shed immediately.
	if _, err := s.Infer(context.Background(), img); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if reg.Counter("serve.jobs.rejected").Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestSchedulerExpiresQueuedJobDeadline(t *testing.T) {
	backend := newFakeBackend()
	reg := stats.NewRegistry()
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 4, Metrics: reg})

	img := &core.CipherImage{}
	first := make(chan error, 1)
	go func() { _, err := s.Infer(context.Background(), img); first <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for backend.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The second job's deadline expires while it waits behind the first.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Infer(ctx, img); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}

	close(backend.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The expired job must never have entered the backend.
	if got := backend.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d jobs, want 1", got)
	}
	if reg.Counter("serve.jobs.expired").Value() != 1 {
		t.Fatal("expiry not counted")
	}
}

func TestSchedulerAppliesDefaultDeadline(t *testing.T) {
	backend := newFakeBackend()
	defer close(backend.release)
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 4, Deadline: 30 * time.Millisecond})
	defer s.Close()
	// The lone worker blocks on this job until its default deadline fires.
	if _, err := s.Infer(context.Background(), &core.CipherImage{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded from default deadline", err)
	}
}

func TestSchedulerClosedRejects(t *testing.T) {
	backend := newFakeBackend()
	close(backend.release)
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 1})
	s.Close()
	if _, err := s.Infer(context.Background(), &core.CipherImage{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// --- End-to-end: the pipeline over a real enclave service ---

// stack is a full engine + service + client over a zero-cost platform.
type stack struct {
	platform *sgx.Platform
	svc      *core.EnclaveService
	engine   *core.HybridEngine
	client   *core.Client
	model    *nn.Network
}

func serveConfig() core.Config {
	// SGXDiv pooling pins the paper's two-ECALL pipeline (sigmoid, then
	// pool-divide) instead of the planner's fused whole-map call.
	return core.Config{PixelScale: 63, WeightScale: 16, ActScale: 256, Pool: core.PoolSGXDiv}
}

func newStack(t testing.TB, seed uint64) *stack {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(seed, seed^1))
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
		t.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewService()
	verifier.RegisterPlatform(platform.AttestationPublicKey())
	verifier.TrustMeasurement(svc.Enclave().Measurement())
	if _, err := client.RunKeyExchange(svc, verifier); err != nil {
		t.Fatal(err)
	}
	return &stack{platform: platform, svc: svc, engine: engine, client: client, model: model}
}

func testImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed^2))
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

// runConcurrent pushes n distinct images through the serving stack at once
// and verifies every decrypted result against the plaintext reference. It
// returns the enclave transition count consumed by the inferences.
func runConcurrent(t *testing.T, st *stack, s *Service, n int) uint64 {
	t.Helper()
	imgs := make([]*nn.Tensor, n)
	cis := make([]*core.CipherImage, n)
	for i := range imgs {
		imgs[i] = testImage(uint64(100 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{imgs[i]}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		cis[i] = ci
	}
	if err := st.engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	before := st.platform.Snapshot()

	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.Infer(context.Background(), Request{Image: cis[i]})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("inference %d: %v", i, errs[i])
		}
		got, err := st.client.DecryptValues(results[i].Logits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.engine.ReferenceForward(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("inference %d: %d logits, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("inference %d logit %d: encrypted %d != reference %d", i, j, got[j], want[j])
			}
		}
	}
	return st.platform.Snapshot().Sub(before).Transitions()
}

// TestPipelineBatchingReducesTransitions pins the paper's per-layer ECALL
// batching (§VIII) under concurrency: n requests served at once, each in
// its own scalar pass, every logit equal to the plaintext reference, and
// each request crossing the boundary exactly once per enclave layer however
// many ciphertexts the layer carries — 2n transitions for the model's two
// enclave layers (sigmoid, pool-divide), with nothing shared or lost
// between requests.
func TestPipelineBatchingReducesTransitions(t *testing.T) {
	const n = 8

	st := newStack(t, 41)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: n, QueueDepth: n}),
		WithoutLanes(), // scalar passes: one engine pass per request
	)
	transitions := runConcurrent(t, st, p, n)
	p.Close()

	t.Logf("transitions for %d concurrent inferences: %d", n, transitions)
	if transitions != 2*n {
		t.Fatalf("%d concurrent inferences made %d transitions, want %d", n, transitions, 2*n)
	}
	if got := p.Metrics.Counter("serve.jobs.completed").Value(); got != n {
		t.Fatalf("serve.jobs.completed = %d, want %d", got, n)
	}
}

func TestPipelineSequentialStillCorrect(t *testing.T) {
	st := newStack(t, 43)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 2, QueueDepth: 4}),
		WithoutLanes(),
	)
	defer p.Close()
	for i := 0; i < 3; i++ {
		img := testImage(uint64(200 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{img}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Infer(context.Background(), Request{Image: ci})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.client.DecryptValues(res.Logits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.engine.ReferenceForward(img)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("solo inference %d logit %d mismatch", i, j)
			}
		}
	}
}

func TestPipelineCancelledJobSkipsEnclave(t *testing.T) {
	st := newStack(t, 44)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}),
		WithoutLanes(),
	)
	defer p.Close()
	ci, err := st.client.EncryptImages([]*nn.Tensor{testImage(300)}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Infer(ctx, Request{Image: ci}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestOpValidation pins the unified op API's argument checking.
func TestOpValidation(t *testing.T) {
	cases := []struct {
		op core.NonlinearOp
		ok bool
	}{
		{core.NonlinearOp{Kind: core.OpSigmoid, InScale: 1, OutScale: 1}, true},
		{core.NonlinearOp{Kind: core.OpSigmoid}, false},
		{core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: 4}, true},
		{core.NonlinearOp{Kind: core.OpPoolDivide}, false},
		{core.NonlinearOp{Kind: core.OpPoolFull, Geometry: core.Geometry{Channels: 1, Height: 4, Width: 4, Window: 2}}, true},
		{core.NonlinearOp{Kind: core.OpPoolFull, Geometry: core.Geometry{Channels: 1, Height: 4, Width: 4, Window: 3}}, false},
		{core.NonlinearOp{Kind: core.OpPoolMax}, false},
		{core.NonlinearOp{Kind: core.OpRefresh}, true},
		{core.NonlinearOp{Kind: core.OpKind(99)}, false},
	}
	for i, c := range cases {
		err := c.op.Validate()
		if c.ok && err != nil {
			t.Errorf("case %d (%s): unexpected error %v", i, c.op.Kind, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d (%s): validation passed, want error", i, c.op.Kind)
		}
	}
	if fmt.Sprint(core.OpSigmoid, core.OpRefresh) != "sigmoid refresh" {
		t.Error("op kind names changed")
	}
}
