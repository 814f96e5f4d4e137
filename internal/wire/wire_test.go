package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	mrand "math/rand/v2"
	"net"
	"sync"
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

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, MsgInferRequest, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgInferRequest || !bytes.Equal(got, payload) {
		t.Fatalf("frame roundtrip: type %d payload %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgTrustRequest, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgTrustRequest || len(got) != 0 {
		t.Fatal("empty payload roundtrip failed")
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	buf := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}
	if _, _, err := ReadFrame(bytes.NewReader(buf)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{5})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// testStack spins up a full in-process edge server on a random port.
func testStack(t *testing.T) (addr string, svc *core.EnclaveService, model *nn.Network, shutdown func()) {
	t.Helper()
	addr, st, shutdown := testStackPipeline(t, nil)
	return addr, st.svc, st.model, shutdown
}

// pipelineStack bundles the server-side components for tests that need
// direct access past the network boundary.
type pipelineStack struct {
	svc     *core.EnclaveService
	engine  *core.HybridEngine
	model   *nn.Network
	service *serve.Service
	metrics *stats.Registry
}

// testStackPipeline spins up an edge server. The inference path always
// runs through the serving stack (the engine-direct server path was
// retired with the legacy constructor); svcOpts refine the stack.
func testStackPipeline(t *testing.T, svcOpts []serve.Option) (addr string, st *pipelineStack, shutdown func()) {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(31)))
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
	engine, err := core.NewEngine(svc, model, core.WithScales(63, 16, 256))
	if err != nil {
		t.Fatal(err)
	}
	st = &pipelineStack{svc: svc, engine: engine, model: model, metrics: stats.NewRegistry()}
	st.service = serve.NewService(engine, svc, append(svcOpts, serve.WithoutLanes())...)
	opts := []ServerOption{WithMetrics(st.metrics), WithService(st.service)}
	srv, err := NewServer(svc, engine, slog.New(slog.NewTextHandler(testWriter{t}, nil)), opts...)
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
	return ln.Addr().String(), st, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
		if st.service != nil {
			st.service.Close()
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimSpace(p)))
	return len(p), nil
}

func testImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed))
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

func TestEndToEndAttestAndInfer(t *testing.T) {
	addr, svc, model, shutdown := testStack(t)
	defer shutdown()

	verifier := attest.NewService()
	client, err := Dial(addr, verifier)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.FetchTrustBundle(); err != nil {
		t.Fatal(err)
	}
	if err := client.Attest(); err != nil {
		t.Fatal(err)
	}
	if !client.Ready() {
		t.Fatal("client not ready after attest")
	}
	if !client.Params().Equal(svc.Params()) {
		t.Fatal("client params differ from enclave params")
	}

	img := testImage(5)
	logits, err := client.Infer(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 4 {
		t.Fatalf("got %d logits", len(logits))
	}
	// The remote prediction should match the local float model's argmax
	// (quantization is mild at these scales).
	floatOut, err := model.Forward(img)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := client.Predict(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	if pred != floatOut.ArgMax() {
		t.Logf("warning: remote pred %d vs float %d (acceptable quantization drift)", pred, floatOut.ArgMax())
	}
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best != pred {
		t.Fatal("Predict disagrees with Infer argmax")
	}
}

func TestInferWithoutAttestFails(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	client, err := Dial(addr, attest.NewService())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Infer(testImage(1), 63); err == nil {
		t.Fatal("inference without keys accepted")
	}
}

func TestAttestFailsWithoutTrust(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	client, err := Dial(addr, attest.NewService()) // nothing trusted
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Attest(); err == nil {
		t.Fatal("attestation succeeded with empty trust store")
	}
}

func TestServerRejectsGarbageInferPayload(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgInferRequest, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("expected error frame, got %d (%q)", typ, payload)
	}
}

func TestServerRejectsUnknownMessage(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgType(99), nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("expected error frame, got %d", typ)
	}
}

func TestMultipleConcurrentClients(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	const clients = 3
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(seed uint64) {
			verifier := attest.NewService()
			client, err := Dial(addr, verifier)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			if err := client.FetchTrustBundle(); err != nil {
				errs <- err
				return
			}
			if err := client.Attest(); err != nil {
				errs <- err
				return
			}
			_, err = client.Infer(testImage(seed), 63)
			errs <- err
		}(uint64(i + 10))
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerValidationRejectsNil(t *testing.T) {
	if _, err := NewServer(nil, nil, nil); err == nil {
		t.Fatal("nil components accepted")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	payload := EncodeError(CodeOverloaded, "queue full")
	se := DecodeError(payload)
	if se.Code != CodeOverloaded || se.Msg != "queue full" {
		t.Fatalf("decoded %+v", se)
	}
	if !se.Temporary() {
		t.Fatal("overloaded should be temporary")
	}
	if se := DecodeError(nil); se.Code != CodeUnknown {
		t.Fatalf("empty payload decoded to %v", se.Code)
	}
	if DecodeError(EncodeError(CodeBadRequest, "nope")).Temporary() {
		t.Fatal("bad request should not be temporary")
	}
	if CodeDeadline.String() != "deadline" || CodeShutdown.String() != "shutdown" {
		t.Fatal("error code names changed")
	}
}

func TestErrorCodeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want ErrCode
	}{
		{serve.ErrQueueFull, CodeOverloaded},
		{serve.ErrClosed, CodeShutdown},
		{context.DeadlineExceeded, CodeDeadline},
		{context.Canceled, CodeShutdown},
		{&badRequestError{errors.New("garbled")}, CodeBadRequest},
		{errors.New("disk fell out"), CodeInternal},
	}
	for _, c := range cases {
		if got := errorCode(c.err); got != c.want {
			t.Errorf("errorCode(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestGarbageInferPayloadReturnsBadRequestCode(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgInferRequest, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("expected error frame, got %d", typ)
	}
	if se := DecodeError(payload); se.Code != CodeBadRequest {
		t.Fatalf("got code %v (%q), want bad-request", se.Code, se.Msg)
	}
}

// dialAttested connects, bootstraps trust, and completes attestation.
func dialAttested(t *testing.T, addr string, opts ...ClientOption) *Client {
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

// TestScheduledServerConcurrentClients drives N parallel clients through a
// pipeline-backed server (bounded queue, worker pool) and checks every
// result against a sequential reference run — decryption is exact, so
// concurrent and sequential serving must agree bit for bit.
func TestScheduledServerConcurrentClients(t *testing.T) {
	const clients = 8
	addr, _, shutdown := testStackPipeline(t, []serve.Option{
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: clients, QueueDepth: 2 * clients}),
	})
	defer shutdown()

	// Sequential reference pass over the same images.
	ref := dialAttested(t, addr)
	want := make([][]float64, clients)
	for i := range want {
		logits, err := ref.Infer(testImage(uint64(50+i)), 63)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = logits
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := Dial(addr, attest.NewService())
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			if err := client.FetchTrustBundle(); err != nil {
				errs[i] = err
				return
			}
			if err := client.Attest(); err != nil {
				errs[i] = err
				return
			}
			logits, err := client.Infer(testImage(uint64(50+i)), 63)
			if err != nil {
				errs[i] = err
				return
			}
			if len(logits) != len(want[i]) {
				errs[i] = errors.New("logit count mismatch")
				return
			}
			for j := range logits {
				if logits[j] != want[i][j] {
					errs[i] = errors.New("concurrent result diverged from sequential reference")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// TestClosedPipelineSurfacesTypedShutdownError checks the full loop: the
// scheduler rejects with ErrClosed, the server encodes CodeShutdown, and
// the client surfaces a *ServerError the caller can branch on.
func TestClosedPipelineSurfacesTypedShutdownError(t *testing.T) {
	addr, st, shutdown := testStackPipeline(t, []serve.Option{
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: 1, QueueDepth: 1}),
	})
	defer shutdown()
	client := dialAttested(t, addr)
	st.service.Close() // server still up; scheduler drained

	_, err := client.Infer(testImage(77), 63)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *ServerError", err)
	}
	if se.Code != CodeShutdown {
		t.Fatalf("got code %v (%q), want shutdown", se.Code, se.Msg)
	}
}

// TestSeededUploadSmallerOnWire measures the actual transport payload: the
// seeded request the server counted is exactly SeededCipherImageSize and at
// least 2× below the same image as fixed-width public-key ciphertexts.
func TestSeededUploadSmallerOnWire(t *testing.T) {
	addr, st, shutdown := testStackPipeline(t, nil)
	defer shutdown()
	img := testImage(61)

	client := dialAttested(t, addr)
	if _, err := client.Infer(img, 63); err != nil {
		t.Fatal(err)
	}
	seeded, err := client.inner.EncryptImageSeeded(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	onWire := st.metrics.Histogram("wire.request_bytes").Snapshot().Max
	if want := float64(core.SeededCipherImageSize(seeded)); onWire != want {
		t.Fatalf("request payload %g B, SeededCipherImageSize says %g", onWire, want)
	}
	pk, err := client.inner.EncryptImages([]*nn.Tensor{img}, 63)
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0.0
	for _, ct := range pk.CTs {
		fixed += float64(ct.WireSize())
	}
	if ratio := fixed / onWire; ratio < 2 {
		t.Fatalf("wire-level upload reduction %.2f× below 2× (fixed-width %g B, seeded %g B)", ratio, fixed, onWire)
	}
	if st.metrics.Counter("wire.bytes_in").Value() <= 0 {
		t.Fatal("inbound byte counter did not record traffic")
	}
	// Outbound accounting follows a successful write, so it can trail the
	// reply the client already holds: wait for it instead of racing it.
	waitReplies(t, st.metrics, 1)
	if st.metrics.Counter("wire.bytes_out").Value() <= 0 {
		t.Fatal("outbound byte counter did not record traffic")
	}
}

// waitReplies blocks until the server has accounted n inference replies
// (wire.reply_bytes is observed after the reply frame is written and its
// wire.encode span closed, which can trail the client reading the reply).
func waitReplies(t *testing.T, reg *stats.Registry, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Histogram("wire.reply_bytes").Snapshot().Count < n {
		if time.Now().After(deadline) {
			t.Fatalf("outbound accounting never caught up: %d of %d replies",
				reg.Histogram("wire.reply_bytes").Snapshot().Count, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteFrameFuncStreamsAndVerifiesLength: the streaming writer produces
// frames indistinguishable from WriteFrame and refuses payload writers that
// do not emit exactly the declared byte count.
func TestWriteFrameFuncStreamsAndVerifiesLength(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	var direct, streamed bytes.Buffer
	if err := WriteFrame(&direct, MsgInferReply, payload); err != nil {
		t.Fatal(err)
	}
	err := WriteFrameFunc(&streamed, MsgInferReply, len(payload), func(w io.Writer) error {
		// Write in uneven chunks to exercise the counting path.
		if _, err := w.Write(payload[:123]); err != nil {
			return err
		}
		_, err := w.Write(payload[123:])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed frame differs from direct frame")
	}

	var buf bytes.Buffer
	err = WriteFrameFunc(&buf, MsgInferReply, 10, func(w io.Writer) error {
		_, werr := w.Write([]byte("short"))
		return werr
	})
	if err == nil {
		t.Fatal("under-delivering payload writer accepted")
	}
	if err := WriteFrameFunc(&buf, MsgInferReply, MaxFrameBytes, func(io.Writer) error { return nil }); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized declared length: got %v", err)
	}
}

// TestWriteFrameFuncPartialWriteIsTransportFatal pins the desync contract:
// a payload failure before anything is flushed leaves the transport
// untouched and returns a plain error (the connection can still carry an
// error frame), while a failure after bytes have hit the transport comes
// back as *PartialFrameError — the caller must close the connection instead
// of framing anything else onto a truncated frame.
func TestWriteFrameFuncPartialWriteIsTransportFatal(t *testing.T) {
	boom := errors.New("boom")

	// Small payload: the 32KB buffer absorbs everything, so nothing reaches
	// the transport and the failure is recoverable.
	var conn bytes.Buffer
	err := WriteFrameFunc(&conn, MsgInferReply, 100, func(w io.Writer) error {
		_, _ = w.Write(make([]byte, 10))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	var partial *PartialFrameError
	if errors.As(err, &partial) {
		t.Fatal("unflushed failure reported as partial frame")
	}
	if conn.Len() != 0 {
		t.Fatalf("%d bytes leaked to the transport on a recoverable failure", conn.Len())
	}

	// Multi-buffer payload: the buffer flushes mid-payload, so the same
	// failure now leaves a truncated frame on the wire.
	conn.Reset()
	err = WriteFrameFunc(&conn, MsgInferReply, 100<<10, func(w io.Writer) error {
		if _, werr := w.Write(make([]byte, 64<<10)); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.As(err, &partial) {
		t.Fatalf("got %v, want *PartialFrameError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatal("partial frame error lost its cause")
	}
	if conn.Len() == 0 {
		t.Fatal("test expected flushed bytes before the failure")
	}

	// An under-delivering writer after a flush is the same class of failure.
	conn.Reset()
	err = WriteFrameFunc(&conn, MsgInferReply, 100<<10, func(w io.Writer) error {
		_, werr := w.Write(make([]byte, 64<<10))
		return werr
	})
	if !errors.As(err, &partial) {
		t.Fatalf("under-delivery after flush: got %v, want *PartialFrameError", err)
	}
}

// TestReadFrameReuse pins the pooled-read contract: a large enough buffer is
// reused in place, a small one is replaced by a larger allocation.
func TestReadFrameReuse(t *testing.T) {
	var stream bytes.Buffer
	first := bytes.Repeat([]byte{1}, 64)
	second := bytes.Repeat([]byte{2}, 16)
	if err := WriteFrame(&stream, MsgInferRequest, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, MsgInferRequest, second); err != nil {
		t.Fatal(err)
	}

	_, p1, err := ReadFrameReuse(&stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, first) {
		t.Fatal("first payload corrupted")
	}
	buf := p1[:cap(p1)]
	_, p2, err := ReadFrameReuse(&stream, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p2, second) {
		t.Fatal("second payload corrupted")
	}
	if &p2[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
}
