package serve

import (
	"context"
	"errors"
	mrand "math/rand/v2"
	"sync"
	"testing"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// newBatchStack is newStack over batching-capable parameters (prime
// t ≡ 1 mod 2n), the configuration where the lane packer activates.
func newBatchStack(t testing.TB, seed uint64) *stack {
	t.Helper()
	tm, err := core.SIMDBatchingModulus(1024, 20)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, tm, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	return newBatchStackFor(t, seed, params, laneModel(seed), core.WithPoolStrategy(core.PoolSGXDiv))
}

// newBatchStackFor is newBatchStack over given parameters, model and
// engine plan (options after the default 63/16/256 scales).
func newBatchStackFor(t testing.TB, seed uint64, params he.Parameters, model *nn.Network, plan ...core.EngineOption) *stack {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(svc, model, append([]core.EngineOption{core.WithScales(63, 16, 256)}, plan...)...)
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
	if err := engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	return &stack{platform: platform, svc: svc, engine: engine, client: client, model: model}
}

func laneModel(seed uint64) *nn.Network {
	r := mrand.New(mrand.NewPCG(seed, seed^1))
	return nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
}

// checkAgainstReference asserts the decrypted logits are bit-identical to
// the plaintext fixed-point oracle — the same oracle a scalar pass
// reproduces exactly, so equality here proves lane == scalar.
func checkAgainstReference(t *testing.T, st *stack, img *nn.Tensor, res *Result) {
	t.Helper()
	got, err := st.client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d logits, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("logit %d: lane result %d != scalar reference %d", j, got[j], want[j])
		}
	}
}

// TestServiceLanePackedMatchesScalar is the oracle-equivalence property:
// K concurrent requests packed into one shared slot-lane pass must each
// decrypt to exactly the result a lone scalar pass produces.
func TestServiceLanePackedMatchesScalar(t *testing.T) {
	const k = 6
	st := newBatchStack(t, 71)
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 2, QueueDepth: 16}),
		// MaxLanes == k: the k-th arrival triggers the flush, no window wait.
		WithLaneConfig(LaneConfig{MaxLanes: k, MinLanes: 2, Window: 5 * time.Second}))
	defer s.Close()

	imgs := make([]*nn.Tensor, k)
	cis := make([]*core.CipherImage, k)
	for i := range imgs {
		imgs[i] = testImage(uint64(500 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{imgs[i]}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		cis[i] = ci
	}

	var wg sync.WaitGroup
	results := make([]*Result, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Infer(context.Background(), Request{Image: cis[i]})
		}(i)
	}
	wg.Wait()

	lanesSeen := make(map[int]bool)
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Mode != ModeLane {
			t.Fatalf("request %d ran %q, want %q", i, results[i].Mode, ModeLane)
		}
		if results[i].Lanes != k {
			t.Fatalf("request %d reports %d lanes, want %d", i, results[i].Lanes, k)
		}
		if lanesSeen[results[i].Lane] {
			t.Fatalf("lane %d assigned twice", results[i].Lane)
		}
		lanesSeen[results[i].Lane] = true
		checkAgainstReference(t, st, imgs[i], results[i])
	}
	if flushes := s.Metrics.Counter("serve.lanes.flushes").Value(); flushes != 1 {
		t.Fatalf("serve.lanes.flushes = %d, want 1 shared pass", flushes)
	}
	if packed := s.Metrics.Counter("serve.lanes.packed_requests").Value(); packed != k {
		t.Fatalf("serve.lanes.packed_requests = %d, want %d", packed, k)
	}
}

// TestServiceLowLoadFallsBackToScalar: a lone request whose lane window
// expires below the fill floor must run a scalar pass — and its deadline
// must keep holding across the wait.
func TestServiceLowLoadFallsBackToScalar(t *testing.T) {
	st := newBatchStack(t, 72)
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}),
		WithLaneConfig(LaneConfig{MaxLanes: 8, MinLanes: 2, Window: 10 * time.Millisecond}))
	defer s.Close()

	img := testImage(600)
	ci, err := st.client.EncryptImages([]*nn.Tensor{img}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Infer(context.Background(), Request{Image: ci, Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeScalar || res.Lanes != 1 {
		t.Fatalf("lone request ran mode=%q lanes=%d, want scalar fallback", res.Mode, res.Lanes)
	}
	checkAgainstReference(t, st, img, res)
	if fb := s.Metrics.Counter("serve.lanes.fallback_requests").Value(); fb != 1 {
		t.Fatalf("serve.lanes.fallback_requests = %d, want 1", fb)
	}
	if s.Metrics.Counter("serve.lanes.flushes").Value() != 0 {
		t.Fatal("low-load request counted as a packed flush")
	}

	// An already-expired deadline must surface immediately — not after the
	// lane window, not after a queue wait.
	_, err = s.Infer(context.Background(), Request{Image: ci, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want DeadlineExceeded", err)
	}
}

// TestServiceLanesDisabledOnNonBatchingModulus: with t not ≡ 1 mod 2n the
// lane stage must disable itself and serve every request scalar.
func TestServiceLanesDisabledOnNonBatchingModulus(t *testing.T) {
	st := newStack(t, 73) // t = 2^20: no CRT slots
	if err := st.engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}))
	defer s.Close()
	if s.lanes != nil {
		t.Fatal("lane packer built over a non-batching modulus")
	}
	if s.Metrics.Gauge("serve.lanes.enabled").Value() != 0 {
		t.Fatal("serve.lanes.enabled gauge not zeroed")
	}
	img := testImage(700)
	ci, err := st.client.EncryptImages([]*nn.Tensor{img}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Infer(context.Background(), Request{Image: ci})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeScalar {
		t.Fatalf("mode %q, want scalar", res.Mode)
	}
	checkAgainstReference(t, st, img, res)
}

// TestServicePrePackedImageBypassesPacker: a caller-packed batch
// (EncryptImages, Lanes > 1) must run one engine pass without entering the
// lane packer, and its slot lanes must decrypt to per-image references.
func TestServicePrePackedImageBypassesPacker(t *testing.T) {
	const k = 3
	st := newBatchStack(t, 74)
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}))
	defer s.Close()

	imgs := make([]*nn.Tensor, k)
	for i := range imgs {
		imgs[i] = testImage(uint64(800 + i))
	}
	ci, err := st.client.EncryptImages(imgs, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Infer(context.Background(), Request{Image: ci})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeLane || res.Lanes != k || res.Lane != -1 {
		t.Fatalf("pre-packed ran mode=%q lanes=%d lane=%d, want lane/%d/-1", res.Mode, res.Lanes, res.Lane, k)
	}
	if s.Metrics.Counter("serve.lanes.requests").Value() != 0 {
		t.Fatal("pre-packed image entered the lane packer")
	}
	vals, err := st.client.DecryptValueBatch(res.Logits, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		want, err := st.engine.ReferenceForward(img)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if vals[i][j] != want[j] {
				t.Fatalf("image %d logit %d: packed %d != reference %d", i, j, vals[i][j], want[j])
			}
		}
	}
}

// TestLaneSchedulerConcurrent64 drives 64 concurrent clients through the
// full service — the load shape behind the slot-batched serving mode's
// throughput claim and the CI -race target for the lane scheduler.
func TestLaneSchedulerConcurrent64(t *testing.T) {
	const n = 64
	st := newBatchStack(t, 75)
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 4, QueueDepth: n}),
		WithLaneConfig(LaneConfig{MaxLanes: 16, MinLanes: 2, Window: 50 * time.Millisecond}))
	defer s.Close()

	imgs := make([]*nn.Tensor, n)
	cis := make([]*core.CipherImage, n)
	for i := range imgs {
		imgs[i] = testImage(uint64(900 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{imgs[i]}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		cis[i] = ci
	}

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

	laneServed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Mode == ModeLane {
			laneServed++
		}
		checkAgainstReference(t, st, imgs[i], results[i])
	}
	t.Logf("%d/%d requests lane-served across %d flushes",
		laneServed, n, s.Metrics.Counter("serve.lanes.flushes").Value())
	if laneServed == 0 {
		t.Fatal("no request was lane-served at 64-way concurrency")
	}
}

// TestServiceLanePackedFusedStageCancelledLaneMate drives the lane packer
// over the default plan, where the shared SIMD pass runs the activation
// inside the pool ECALL: a lane-mate that gives up while parked in the
// bucket still rides the pass, and the surviving lanes decrypt to the
// oracle bit for bit. The pass costs three ECALLs — lane_pack, the fused
// stage, lane_demux — so a silent fallback to two calls fails.
func TestServiceLanePackedFusedStageCancelledLaneMate(t *testing.T) {
	const k = 3
	r := mrand.New(mrand.NewPCG(91, 92))
	// A 2×12×12 map behind the conv: 288 ciphertexts, above the fusion floor.
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*6*6, 4, r),
	)
	// The 72-input FC needs the n=2048 tier's headroom (the ledger's
	// parameters and scales).
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		t.Fatal(err)
	}
	st := newBatchStackFor(t, 77, params, model, core.WithScales(63, 8, 256))
	s := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 2, QueueDepth: 16}),
		WithLaneConfig(LaneConfig{MaxLanes: k, MinLanes: 2, Window: time.Minute}))
	defer s.Close()

	imgs := make([]*nn.Tensor, k)
	cis := make([]*core.CipherImage, k)
	for i := range imgs {
		imgs[i] = nn.NewTensor(1, 14, 14)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = r.Float64()
		}
		ci, err := st.client.EncryptImages([]*nn.Tensor{imgs[i]}, 63)
		if err != nil {
			t.Fatal(err)
		}
		cis[i] = ci
	}

	// Lane 0 parks in the bucket, then its caller cancels.
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := s.Infer(ctx, Request{Image: cis[0]})
		gaveUp <- err
	}()
	for s.Metrics.Counter("serve.lanes.requests").Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lane-mate returned %v, want context.Canceled", err)
	}

	before := st.platform.Snapshot()
	var wg sync.WaitGroup
	results := make([]*Result, k)
	errs := make([]error, k)
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Infer(context.Background(), Request{Image: cis[i]})
		}(i)
	}
	wg.Wait()
	for i := 1; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Mode != ModeLane || results[i].Lanes != k {
			t.Fatalf("request %d ran %q over %d lanes, want the shared %d-lane pass", i, results[i].Mode, results[i].Lanes, k)
		}
		checkAgainstReference(t, st, imgs[i], results[i])
	}
	if got := st.platform.Snapshot().Sub(before).ECalls; got != 3 {
		t.Fatalf("shared pass cost %d ECALLs, want 3 (lane_pack, fused act+pool, lane_demux)", got)
	}
}
