package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"log/slog"
	mrand "math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// testStackLanes spins up an edge server over batching-capable parameters
// with the full serving stack (lane packer included) behind WithService.
func testStackLanes(t *testing.T) (addr string, st *pipelineStack, service *serve.Service, shutdown func()) {
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
	r := mrand.New(mrand.NewPCG(3, 4))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
	return testStackLanesFor(t, params, model,
		serve.LaneConfig{MaxLanes: 16, MinLanes: 2, Window: 10 * time.Millisecond},
		core.WithScales(63, 16, 256), core.WithPoolStrategy(core.PoolSGXDiv))
}

// testStackLanesFor is testStackLanes over given parameters, model, lane
// policy and engine plan.
func testStackLanesFor(t *testing.T, params he.Parameters, model *nn.Network, lanes serve.LaneConfig, plan ...core.EngineOption) (addr string, st *pipelineStack, service *serve.Service, shutdown func()) {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(svc, model, plan...)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	st = &pipelineStack{svc: svc, engine: engine, model: model, metrics: stats.NewRegistry()}
	service = serve.NewService(engine, svc,
		serve.WithMetrics(st.metrics),
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: 2, QueueDepth: 64}),
		serve.WithLaneConfig(lanes))
	srv, err := NewServer(svc, engine, slog.New(slog.NewTextHandler(testWriter{t}, nil)),
		WithMetrics(st.metrics), WithService(service), WithTracer(service.Tracer))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ctx, ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return ln.Addr().String(), st, service, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
		service.Close()
	}
}

func attestedClient(t *testing.T, addr string, opts ...ClientOption) *Client {
	t.Helper()
	client, err := Dial(addr, attest.NewService(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.FetchTrustBundle(); err != nil {
		t.Fatal(err)
	}
	if err := client.Attest(); err != nil {
		t.Fatal(err)
	}
	return client
}

// TestInferBatchRoundTrip: a client-packed lane batch over the wire must
// decrypt to exactly the per-image results of scalar round trips.
func TestInferBatchRoundTrip(t *testing.T) {
	addr, _, _, shutdown := testStackLanes(t)
	defer shutdown()
	client := attestedClient(t, addr)

	const k = 4
	imgs := make([]*nn.Tensor, k)
	for i := range imgs {
		imgs[i] = testImage(uint64(10 + i))
	}
	batched, err := client.InferBatch(imgs, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != k {
		t.Fatalf("got %d result rows, want %d", len(batched), k)
	}
	for i, img := range imgs {
		scalar, err := client.Infer(img, 63)
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(scalar) {
			t.Fatalf("image %d: %d batched logits vs %d scalar", i, len(batched[i]), len(scalar))
		}
		for j := range scalar {
			if batched[i][j] != scalar[j] {
				t.Fatalf("image %d logit %d: batched %g != scalar %g", i, j, batched[i][j], scalar[j])
			}
		}
	}
}

// TestInferBatchOfOneDegradesToScalar: the unified API accepts a batch of
// one everywhere — it rides the scalar round trip.
func TestInferBatchOfOneDegradesToScalar(t *testing.T) {
	addr, _, _, shutdown := testStackLanes(t)
	defer shutdown()
	client := attestedClient(t, addr)
	res, err := client.InferBatch([]*nn.Tensor{testImage(30)}, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0]) != 4 {
		t.Fatalf("unexpected result shape")
	}
}

// TestServerRejectsBadLaneCount: a lane count outside [1, n] is a bad
// request naming the lane count, refused from the four header bytes — the
// bytes behind them are garbage here, so an answer that blames the image
// means the decoder ran first — and the connection serves the next request.
func TestServerRejectsBadLaneCount(t *testing.T) {
	addr, _, _, shutdown := testStackLanes(t)
	defer shutdown()
	client := attestedClient(t, addr)
	n := client.Params().N

	ci, err := client.inner.EncryptImages([]*nn.Tensor{testImage(40), testImage(41)}, 63)
	if err != nil {
		t.Fatal(err)
	}
	var valid bytes.Buffer
	if err := core.WriteCipherImagePacked(&valid, ci); err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []uint32{0, uint32(n) + 1, 0x7fffffff} {
		for name, body := range map[string][]byte{"valid image": valid.Bytes(), "garbage": []byte("not a cipher image")} {
			payload := binary.LittleEndian.AppendUint32(nil, lanes)
			payload = append(payload, body...)
			if err := WriteFrame(client.conn, MsgInferBatchRequest, payload); err != nil {
				t.Fatal(err)
			}
			mt, reply, err := ReadFrame(client.conn)
			if err != nil {
				t.Fatal(err)
			}
			if mt != MsgError {
				t.Fatalf("lanes %d over %s: message type %d, want error frame", lanes, name, mt)
			}
			serr := DecodeError(reply)
			if serr.Code != CodeBadRequest || !strings.Contains(serr.Msg, "lane count") {
				t.Fatalf("lanes %d over %s: got %v, want a bad request naming the lane count", lanes, name, serr)
			}
		}
	}
	if _, err := client.InferBatch([]*nn.Tensor{testImage(40), testImage(41)}, 63); err != nil {
		t.Fatalf("connection unusable after refused lane counts: %v", err)
	}
}

// TestLanePackedFusedStageHungUpLaneMate is the end-to-end run of the
// default plan behind the lane packer: three vehicles' uploads share one
// SIMD pass whose activation runs inside the pool ECALL. One vehicle hangs
// up while parked in the bucket — its lane still rides the pass — and the
// other two read logits that equal the plaintext integer oracle exactly.
func TestLanePackedFusedStageHungUpLaneMate(t *testing.T) {
	// The 72-input FC needs the n=2048 tier's headroom (the ledger's
	// parameters and scales).
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(5, 6))
	// A 2×12×12 map behind the conv: 288 ciphertexts, above the fusion floor.
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*6*6, 4, r),
	)
	const k = 3
	addr, st, _, shutdown := testStackLanesFor(t, params, model,
		serve.LaneConfig{MaxLanes: k, MinLanes: 2, Window: time.Minute}, core.WithScales(63, 8, 256))
	defer shutdown()

	imgs := make([]*nn.Tensor, k)
	clients := make([]*Client, k)
	for i := range imgs {
		imgs[i] = nn.NewTensor(1, 14, 14)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = r.Float64()
		}
		clients[i] = attestedClient(t, addr)
	}

	hungUp := make(chan error, 1)
	go func() {
		_, err := clients[0].Infer(imgs[0], 63)
		hungUp <- err
	}()
	for st.metrics.Counter("serve.lanes.requests").Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	clients[0].Close()
	if err := <-hungUp; err == nil {
		t.Fatal("the vehicle that hung up still read a reply")
	}

	platform := st.svc.Enclave().Platform()
	before := platform.Snapshot()
	type reply struct {
		logits []float64
		err    error
	}
	replies := make([]chan reply, k)
	for i := 1; i < k; i++ {
		replies[i] = make(chan reply, 1)
		go func(i int) {
			logits, err := clients[i].Infer(imgs[i], 63)
			replies[i] <- reply{logits, err}
		}(i)
	}
	for i := 1; i < k; i++ {
		rep := <-replies[i]
		if rep.err != nil {
			t.Fatalf("vehicle %d: %v", i, rep.err)
		}
		want, err := st.engine.ReferenceForward(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.logits) != len(want) {
			t.Fatalf("vehicle %d: %d logits, want %d", i, len(rep.logits), len(want))
		}
		for j, w := range want {
			if rep.logits[j] != float64(w)/st.engine.OutScale() {
				t.Fatalf("vehicle %d logit %d: %v != oracle %d/%v", i, j, rep.logits[j], w, st.engine.OutScale())
			}
		}
	}
	if got := st.metrics.Counter("serve.lanes.packed_requests").Value(); got != k {
		t.Fatalf("%d requests lane-packed, want all %d in one pass", got, k)
	}
	if got := platform.Snapshot().Sub(before).ECalls; got != 3 {
		t.Fatalf("shared pass cost %d ECALLs, want 3 (lane_pack, fused act+pool, lane_demux)", got)
	}
}
