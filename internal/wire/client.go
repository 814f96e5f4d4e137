package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/trace"
)

// Client is the smart-device side of the protocol: it attests the edge
// server's enclave, receives HE keys over the attested channel, and
// submits encrypted inference queries. Scalar uploads are seed-compressed
// (c0 + 32-byte expansion seed per pixel, bit-packed coefficients), roughly
// half the bytes of a two-polynomial ciphertext.
type Client struct {
	conn     net.Conn
	inner    *core.Client
	verifier *attest.Service
	// readBuf is reused across Infer replies so steady-state querying pays
	// one reply-sized allocation per connection, not per request.
	readBuf []byte
	// tracer, when set (WithClientTracer), makes every inference a
	// distributed trace: the client mints the trace ID, wraps the request
	// in a MsgTraced envelope, and grafts the server's span subtree from
	// the reply into one end-to-end trace.
	tracer *trace.Tracer

	mu         sync.Mutex
	lastTrace  *trace.Trace
	lastReport *report.FlightReport
}

// ClientOption customizes a Client at Dial time.
type ClientOption func(*Client)

// WithClientTracer turns on distributed tracing: the client mints a trace
// ID per inference, carries it to the server in a MsgTraced envelope, and
// assembles the returned server span subtree with its own encrypt/upload/
// wait/decrypt spans into one end-to-end trace, readable via LastTrace and
// exportable as a single Chrome trace. Pass nil to get a fresh
// default-sized client tracer. Servers predating the envelope answer
// traced requests with a bad-request error; clients that must talk to such
// servers should construct without a tracer.
func WithClientTracer(tr *trace.Tracer) ClientOption {
	return func(c *Client) {
		if tr == nil {
			tr = trace.NewClientTracer(trace.DefaultBufferSize)
		}
		c.tracer = tr
	}
}

// Tracer returns the client's tracer (nil when tracing is off) — its ring
// holds the last assembled end-to-end traces.
func (c *Client) Tracer() *trace.Tracer { return c.tracer }

// LastTrace returns the most recent inference's assembled end-to-end trace
// (nil when tracing is off or nothing ran yet). The trace is finished and
// safe to export.
func (c *Client) LastTrace() *trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTrace
}

// LastReport returns the server flight report carried back by the most
// recent traced inference (nil when tracing is off, the server has tracing
// disabled, or nothing ran yet).
func (c *Client) LastReport() *report.FlightReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastReport
}

// retire finishes a client trace into the tracer ring and publishes it as
// the last trace. Nil-safe.
func (c *Client) retire(tr *trace.Trace) {
	if tr == nil {
		return
	}
	c.tracer.Finish(tr)
	c.mu.Lock()
	c.lastTrace = tr
	c.mu.Unlock()
}

// absorbTracedBlob grafts the server's span subtree under the client
// trace's root span and stores the flight report. A malformed or oversized
// blob is dropped: observability must never fail a request that already
// succeeded.
func (c *Client) absorbTracedBlob(tr *trace.Trace, blob []byte) {
	if tr == nil || len(blob) == 0 {
		return
	}
	var tb tracedBlob
	if err := json.Unmarshal(blob, &tb); err != nil {
		return
	}
	if tb.Trace != nil && len(tb.Trace.Spans) <= trace.MaxSnapshotSpans {
		tr.Graft(tb.Trace, trace.RootSpanID)
	}
	if tb.Report != nil {
		c.mu.Lock()
		c.lastReport = tb.Report
		c.mu.Unlock()
	}
}

// Dial connects to an edge server. The verifier must already trust the
// server platform's attestation key and the expected enclave measurement;
// FetchTrustBundle can bootstrap that for demos.
func Dial(addr string, verifier *attest.Service, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	inner, err := core.NewClient()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c := &Client{conn: conn, inner: inner, verifier: verifier}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// call is one handshake exchange: a buffered request frame out, one reply
// frame back, a MsgError reply surfaced as *ServerError and any type but
// want refused.
func (c *Client) call(req MsgType, payload []byte, want MsgType) ([]byte, error) {
	if err := WriteFrame(c.conn, req, payload); err != nil {
		return nil, err
	}
	t, reply, err := ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if t == MsgError {
		return nil, DecodeError(reply)
	}
	if t != want {
		return nil, fmt.Errorf("wire: expected reply type %d, got type %d", want, t)
	}
	return reply, nil
}

// FetchTrustBundle asks the server for its measurement and platform key
// and registers them with the verifier. This is trust-on-first-use and
// belongs in demos only; production deployments pin these values.
func (c *Client) FetchTrustBundle() error {
	payload, err := c.call(MsgTrustRequest, nil, MsgTrustBundle)
	if err != nil {
		return err
	}
	if len(payload) < 33 {
		return fmt.Errorf("wire: trust bundle too short")
	}
	var m [32]byte
	copy(m[:], payload[:32])
	pub, err := attest.UnmarshalPublicKey(payload[32:])
	if err != nil {
		return err
	}
	c.verifier.TrustMeasurement(m)
	c.verifier.RegisterPlatform(pub)
	return nil
}

// Attest runs the remote-attestation key exchange: challenge nonce out,
// quote back, verification, key installation.
func (c *Client) Attest() error {
	nonce, err := attest.NewNonce()
	if err != nil {
		return err
	}
	reply, err := c.call(MsgAttestRequest, append(nonce[:], c.inner.ECDHPublicKey()...), MsgAttestReply)
	if err != nil {
		return err
	}
	quote, err := attest.UnmarshalQuote(reply)
	if err != nil {
		return err
	}
	return c.inner.CompleteKeyExchange(quote, nonce, c.verifier)
}

// Ready reports whether attestation completed and keys are installed.
func (c *Client) Ready() bool { return c.inner.Ready() }

// Params returns the HE parameters received during attestation.
func (c *Client) Params() he.Parameters { return c.inner.Params }

// UploadGaloisKeys generates rotation key-switching keys for the given
// slot-rotation steps under the client's secret key and installs them on
// the server for slot-packed inference (InferPacked). baseBits 0 selects
// the default decomposition. Servers whose engine has no packed plan
// answer with a bad-request *ServerError.
func (c *Client) UploadGaloisKeys(steps []int, baseBits int) error {
	if !c.Ready() {
		return fmt.Errorf("wire: attest before uploading keys")
	}
	gk, err := c.inner.GenerateGaloisKeys(steps, baseBits)
	if err != nil {
		return err
	}
	payload, err := he.MarshalGaloisKeys(gk)
	if err != nil {
		return err
	}
	_, err = c.call(MsgGaloisKeys, payload, MsgGaloisKeysAck)
	return err
}

// requestBody is an encrypted image ready to stream to the server.
type requestBody struct {
	// size is the exact number of bytes write emits.
	size  int
	write func(io.Writer) error
	// cts is the number of ciphertexts uploaded (encrypt-span telemetry).
	cts int
	// lanes is the number of images sharing the ciphertexts' CRT slots; a
	// lane-batch request frames it ahead of the image and the reply echoes it.
	lanes int
}

// roundTrip is the one client exchange behind Infer, InferPacked and
// InferBatch: encrypt, stream the request, read the reply, hand the
// encrypted logits and the server-reported output scale to decrypt. inner is
// MsgInferRequest or MsgInferBatchRequest; the batch form differs only in the
// 4-byte lane count framed ahead of the image and echoed ahead of the scale.
//
// With a tracer every call is a distributed trace: spans for the client-side
// stages, the trace ID carried in a MsgTraced envelope, the server subtree
// grafted back from the reply. Without one, tr is nil and every
// span/envelope step no-ops into exactly the untraced wire exchange.
func (c *Client) roundTrip(name string, inner MsgType, encrypt func() (requestBody, error),
	decrypt func(logits []*he.Ciphertext, outScale float64) error) error {
	if !c.Ready() {
		return fmt.Errorf("wire: attest before inferring")
	}
	batch := inner == MsgInferBatchRequest
	tr := c.tracer.Start(name)
	defer c.retire(tr)
	ctx := trace.With(context.Background(), tr)
	// The traced envelope when tr is live, the plain inner type otherwise.
	reqType, reqHdr := inner, []byte(nil)
	if tr != nil {
		reqType, reqHdr = MsgTraced, AppendTracedHeader(nil, inner, tr.ID, TracedFlagReturnSpans)
	}

	_, espan := trace.StartSpan(ctx, "client.encrypt", "client")
	body, err := encrypt()
	if err != nil {
		espan.End()
		return err
	}
	espan.Arg("cts", float64(body.cts))
	if batch {
		espan.Arg("lanes", float64(body.lanes))
		reqHdr = binary.LittleEndian.AppendUint32(reqHdr, uint32(body.lanes))
	}
	espan.End()

	// The request streams straight to the socket: its exact size is known up
	// front, so no cipher image is ever buffered whole.
	_, uspan := trace.StartSpan(ctx, "client.upload", "client")
	size := len(reqHdr) + body.size
	err = WriteFrameFunc(c.conn, reqType, size, func(w io.Writer) error {
		if len(reqHdr) > 0 {
			if _, werr := w.Write(reqHdr); werr != nil {
				return werr
			}
		}
		return body.write(w)
	})
	uspan.Arg("bytes", float64(size)).End()
	if err != nil {
		// An upload that died mid-stream desynchronized the framing; no
		// further request can be framed on this connection.
		var partial *PartialFrameError
		if errors.As(err, &partial) {
			_ = c.conn.Close()
		}
		return err
	}

	_, wspan := trace.StartSpan(ctx, "client.wait", "client")
	t, reply, err := ReadFrameReuse(c.conn, c.readBuf)
	wspan.End()
	if err != nil {
		return err
	}
	if cap(reply) > cap(c.readBuf) {
		c.readBuf = reply[:cap(reply)]
	}
	t, reply, err = c.openReply(tr, t, reply)
	if err != nil {
		return err
	}
	if t == MsgError {
		// Surface the typed failure: callers branch on *ServerError (e.g.
		// back off when Code is CodeOverloaded) via errors.As.
		return DecodeError(reply)
	}
	want, hdrLen := MsgInferReply, 8
	if batch {
		want, hdrLen = MsgInferBatchReply, 4+8
	}
	if t != want {
		return fmt.Errorf("wire: expected reply type %d, got type %d", want, t)
	}
	if len(reply) < hdrLen {
		return fmt.Errorf("wire: infer reply too short")
	}
	if batch {
		if got := int(binary.LittleEndian.Uint32(reply)); got != body.lanes {
			return fmt.Errorf("wire: reply carries %d lanes, sent %d", got, body.lanes)
		}
		reply = reply[4:]
	}
	outScale := math.Float64frombits(binary.LittleEndian.Uint64(reply))
	if outScale <= 0 || math.IsNaN(outScale) || math.IsInf(outScale, 0) {
		return fmt.Errorf("wire: invalid output scale %g", outScale)
	}
	_, dspan := trace.StartSpan(ctx, "client.decrypt", "client")
	defer dspan.End()
	logits, err := core.UnmarshalCiphertextBatchAny(reply[8:], c.inner.Params)
	if err != nil {
		return err
	}
	return decrypt(logits, outScale)
}

// openReply unwraps a MsgTracedReply envelope: the blob is absorbed into
// the client trace and the inner type/payload are returned. Plain frames
// (including MsgError — servers never envelope errors) pass through
// untouched.
func (c *Client) openReply(tr *trace.Trace, t MsgType, reply []byte) (MsgType, []byte, error) {
	if t != MsgTracedReply {
		return t, reply, nil
	}
	inner, blob, rest, err := ParseTracedReplyHeader(reply)
	if err != nil {
		return 0, nil, err
	}
	c.absorbTracedBlob(tr, blob)
	return inner, rest, nil
}

// packedBody is the request body of a bit-packed (public-key) cipher image.
func packedBody(ci *core.CipherImage) requestBody {
	return requestBody{
		size:  core.CipherImagePackedSize(ci),
		write: func(w io.Writer) error { return core.WriteCipherImagePacked(w, ci) },
		cts:   len(ci.CTs),
		lanes: ci.Lanes,
	}
}

// inferLogits is roundTrip for a single image: the reply decrypts to one
// logit vector, rescaled by the server-reported output scale.
func (c *Client) inferLogits(name string, encrypt func() (requestBody, error)) ([]float64, error) {
	var out []float64
	err := c.roundTrip(name, MsgInferRequest, encrypt,
		func(logits []*he.Ciphertext, outScale float64) (err error) {
			out, err = c.inner.DecryptLogits(logits, outScale)
			return err
		})
	return out, err
}

// Infer encrypts the image under the secret key in seed-compressed form,
// submits it, and returns decrypted logits (float, rescaled by the
// server-reported output scale).
func (c *Client) Infer(img *nn.Tensor, pixelScale uint64) ([]float64, error) {
	return c.inferLogits("client.infer", func() (requestBody, error) {
		si, err := c.inner.EncryptImageSeeded(img, pixelScale)
		if err != nil {
			return requestBody{}, err
		}
		return requestBody{
			size:  core.SeededCipherImageSize(si),
			write: func(w io.Writer) error { return core.WriteSeededCipherImage(w, si) },
			cts:   len(si.CTs),
		}, nil
	})
}

// InferPacked slot-packs the image into one ciphertext per channel
// (Client.EncryptImagePacked's layout: pixel (y, x) at slot y·W + x),
// submits it, and returns decrypted logits. The server must run an engine
// planned with packed convolution; uploading Galois keys first
// (UploadGaloisKeys) saves it an enclave key-generation round trip.
func (c *Client) InferPacked(img *nn.Tensor, pixelScale uint64) ([]float64, error) {
	return c.inferLogits("client.infer_packed", func() (requestBody, error) {
		ci, err := c.inner.EncryptImagePacked(img, pixelScale)
		if err != nil {
			return requestBody{}, err
		}
		return packedBody(ci), nil
	})
}

// InferBatch slot-packs a batch of same-shape images into shared
// ciphertexts (one ciphertext per pixel position, image k in CRT slot k),
// submits them as one lane-batched request, and returns per-image logits:
// result[image][class], rescaled by the server-reported output scale. The
// whole batch costs one engine pass server-side. Requires a
// batching-capable plaintext modulus (prime t ≡ 1 mod 2n); a batch of one
// degrades to a scalar Infer round trip.
func (c *Client) InferBatch(imgs []*nn.Tensor, pixelScale uint64) ([][]float64, error) {
	if len(imgs) == 0 {
		return nil, fmt.Errorf("wire: empty image batch")
	}
	if len(imgs) == 1 {
		logits, err := c.Infer(imgs[0], pixelScale)
		if err != nil {
			return nil, err
		}
		return [][]float64{logits}, nil
	}
	var out [][]float64
	err := c.roundTrip("client.infer_batch", MsgInferBatchRequest,
		func() (requestBody, error) {
			ci, err := c.inner.EncryptImages(imgs, pixelScale)
			if err != nil {
				return requestBody{}, err
			}
			return packedBody(ci), nil
		},
		func(cts []*he.Ciphertext, outScale float64) error {
			vals, err := c.inner.DecryptValueBatch(cts, len(imgs))
			if err != nil {
				return err
			}
			out = make([][]float64, len(vals))
			for i, row := range vals {
				out[i] = make([]float64, len(row))
				for j, v := range row {
					out[i][j] = float64(v) / outScale
				}
			}
			return nil
		})
	return out, err
}

// Predict returns the argmax class for an image.
func (c *Client) Predict(img *nn.Tensor, pixelScale uint64) (int, error) {
	logits, err := c.Infer(img, pixelScale)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}
