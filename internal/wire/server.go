package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/diag"
	"hesgx/internal/he"
	"hesgx/internal/report"
	"hesgx/internal/serve"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// ServiceInferrer is the serving surface: one entrypoint whose Request
// carries the image plus serving metadata, with lane-packed vs scalar
// execution decided inside. *serve.Service is the production
// implementation.
type ServiceInferrer interface {
	Infer(ctx context.Context, req serve.Request) (*serve.Result, error)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithService routes inference requests through the serving stack —
// normally a *serve.Service, which adds lane-packed execution of
// concurrent requests. Required: NewServer fails without it.
func WithService(svc ServiceInferrer) ServerOption {
	return func(s *Server) { s.service = svc }
}

// WithTracer records one end-to-end trace per inference request — from
// frame decode through scheduler, engine, batcher and ECALLs back to the
// reply — into the tracer's ring buffer. Normally the serving pipeline's
// tracer, so the admin endpoint serves both from one place.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithMetrics records transport-level traffic into reg: wire.bytes_in /
// wire.bytes_out counters over all frames plus per-request payload-size
// histograms (wire.request_bytes, wire.reply_bytes) — the numbers behind
// the ~2× seeded-upload reduction, visible on /metrics. Normally the
// serving pipeline's registry.
func WithMetrics(reg *stats.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// WithEventBus publishes a diag event for every connection-level fault —
// unreadable frames, partial reply frames, transport errors — feeding the
// postmortem capturer.
func WithEventBus(b *diag.Bus) ServerOption {
	return func(s *Server) { s.events = b }
}

// Server is the edge-server endpoint: it owns the enclave service and the
// hybrid engine and answers attestation and inference requests over TCP.
type Server struct {
	svc     *core.EnclaveService
	engine  *core.HybridEngine
	service ServiceInferrer // the serving path (required)
	tracer  *trace.Tracer   // nil: request tracing disabled at the wire
	metrics *stats.Registry // nil-safe: a nil registry no-ops
	events  *diag.Bus       // nil-safe: a nil bus drops publishes
	logger  *slog.Logger

	wg sync.WaitGroup
}

// NewServer wires an enclave service and a planned engine into a network
// endpoint. A serving Service (WithService) is required: the wire layer
// never calls the engine directly.
func NewServer(svc *core.EnclaveService, engine *core.HybridEngine, logger *slog.Logger, opts ...ServerOption) (*Server, error) {
	if svc == nil || engine == nil {
		return nil, fmt.Errorf("wire: server needs an enclave service and an engine")
	}
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{svc: svc, engine: engine, logger: logger}
	for _, opt := range opts {
		opt(s)
	}
	if s.service == nil {
		return nil, fmt.Errorf("wire: server needs a serving Service (WithService)")
	}
	return s, nil
}

// Serve accepts connections until ctx is cancelled or the listener fails.
// It closes the listener on return and waits for in-flight connections.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.wg.Wait()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		_ = ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // graceful shutdown
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			if err := s.handle(ctx, conn); err != nil &&
				!errors.Is(err, net.ErrClosed) && !errors.Is(err, context.Canceled) {
				s.logger.Warn("connection error",
					"remote", conn.RemoteAddr(),
					"trace_id", traceIDOf(err),
					"err", err)
				s.events.Publish(diag.Event{
					Type:     diag.TypeWireFault,
					Severity: diag.SeverityWarn,
					Stage:    "connection",
					TraceID:  traceIDOf(err),
					Message:  fmt.Sprintf("connection to %s failed: %v", conn.RemoteAddr(), err),
				})
			}
		}()
	}
}

// handle serves one connection: a sequence of frames until EOF.
func (s *Server) handle(ctx context.Context, conn net.Conn) error {
	// Close the connection when the server shuts down so blocked reads
	// unwind and any in-flight enclave work for this connection is
	// cancelled.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	// One payload buffer per connection, reused across frames: requests on a
	// connection are handled sequentially and decoders copy what they keep,
	// so each client pays one cipher-image-sized allocation per connection
	// instead of one per request.
	var payloadBuf []byte
	for {
		t, payload, err := ReadFrameReuse(conn, payloadBuf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
				return nil // clean close (client done, or shutdown)
			}
			// A garbled or truncated frame has no request context yet, so the
			// record carries trace_id=0; the remote address is what makes
			// pre-handshake failures attributable.
			s.logger.Warn("dropping connection on unreadable frame",
				"remote", conn.RemoteAddr(),
				"trace_id", uint64(0),
				"err", err)
			s.events.Publish(diag.Event{
				Type:     diag.TypeWireFault,
				Severity: diag.SeverityWarn,
				Stage:    "frame_decode",
				Message:  fmt.Sprintf("dropping connection to %s on unreadable frame: %v", conn.RemoteAddr(), err),
			})
			return nil
		}
		if cap(payload) > cap(payloadBuf) {
			payloadBuf = payload[:cap(payload)]
		}
		s.metrics.Counter("wire.bytes_in").Add(int64(len(payload)) + frameHeaderSize)
		if err := s.dispatch(ctx, conn, t, payload); err != nil {
			// A reply that died mid-stream left a truncated frame on the
			// wire; the connection's framing is unrecoverable, so close it
			// rather than write a MsgError into the middle of that frame.
			var partial *PartialFrameError
			if errors.As(err, &partial) {
				s.logger.Warn("closing connection after partial reply frame",
					"remote", conn.RemoteAddr(),
					"trace_id", traceIDOf(err),
					"err", err)
				s.events.Publish(diag.Event{
					Type:     diag.TypeWireFault,
					Severity: diag.SeverityWarn,
					Stage:    "partial_frame",
					TraceID:  traceIDOf(err),
					Message:  fmt.Sprintf("closing connection to %s after partial reply frame: %v", conn.RemoteAddr(), err),
				})
				return err
			}
			// Protocol-level errors go back to the client as typed error
			// frames; transport errors end the connection.
			code := errorCode(err)
			s.logger.Warn("request failed",
				"remote", conn.RemoteAddr(),
				"code", code,
				"trace_id", traceIDOf(err),
				"err", err)
			if werr := s.writeFrame(conn, MsgError, EncodeError(code, err.Error())); werr != nil {
				return werr
			}
		}
	}
}

// frameHeaderSize is the fixed framing overhead counted into byte totals.
const frameHeaderSize = 5

// writeFrame writes a frame and accounts its bytes.
func (s *Server) writeFrame(conn net.Conn, t MsgType, payload []byte) error {
	err := WriteFrame(conn, t, payload)
	if err == nil {
		s.metrics.Counter("wire.bytes_out").Add(int64(len(payload)) + frameHeaderSize)
	}
	return err
}

// errorCode classifies a handler error for the MsgError frame.
func errorCode(err error) ErrCode {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		return CodeBadRequest
	case errors.Is(err, serve.ErrQueueFull):
		return CodeOverloaded
	case errors.Is(err, serve.ErrClosed):
		return CodeShutdown
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeShutdown
	default:
		return CodeInternal
	}
}

// badRequestError marks a client-side (payload) fault.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// tracedError tags a request error with the trace ID of the request that
// produced it, so connection-level log records join against the trace
// flight recorder. Unwrap keeps errors.Is/As classification intact.
type tracedError struct {
	traceID uint64
	err     error
}

func (e *tracedError) Error() string { return e.err.Error() }
func (e *tracedError) Unwrap() error { return e.err }

// traceIDOf extracts the tagged trace ID from an error chain (0: none).
func traceIDOf(err error) uint64 {
	var te *tracedError
	if errors.As(err, &te) {
		return te.traceID
	}
	return 0
}

func (s *Server) dispatch(ctx context.Context, conn net.Conn, t MsgType, payload []byte) error {
	switch t {
	case MsgTrustRequest:
		return s.handleTrust(conn)
	case MsgAttestRequest:
		return s.handleAttest(conn, payload)
	case MsgInferRequest, MsgInferBatchRequest:
		return s.handleInfer(ctx, conn, t, payload)
	case MsgTraced:
		return s.handleTraced(ctx, conn, payload)
	case MsgGaloisKeys:
		return s.handleGaloisKeys(conn, payload)
	default:
		return &badRequestError{fmt.Errorf("wire: unexpected message type %d", t)}
	}
}

// handleGaloisKeys installs a client-generated rotation key set on the
// engine so its packed-convolution prefix rotates under the client's keys
// without an enclave key-generation round trip. Decode failures, parameter
// mismatches, and engines without a packed plan are all client faults: the
// bytes (or the session) are wrong, and retrying them cannot succeed.
func (s *Server) handleGaloisKeys(conn net.Conn, payload []byte) error {
	gk, err := he.UnmarshalGaloisKeys(payload)
	if err != nil {
		return &badRequestError{fmt.Errorf("wire: decoding galois keys: %w", err)}
	}
	if err := s.engine.InstallGaloisKeys(gk); err != nil {
		return &badRequestError{fmt.Errorf("wire: installing galois keys: %w", err)}
	}
	s.metrics.Counter("wire.galois_key_uploads").Inc()
	s.logger.Info("galois keys installed",
		"remote", conn.RemoteAddr(),
		"rotations", len(gk.Elements()))
	return s.writeFrame(conn, MsgGaloisKeysAck, nil)
}

func (s *Server) handleTrust(conn net.Conn) error {
	m := s.svc.Enclave().Measurement()
	pub := attest.MarshalPublicKey(s.svc.Enclave().Platform().AttestationPublicKey())
	payload := append(m[:], pub...)
	return s.writeFrame(conn, MsgTrustBundle, payload)
}

func (s *Server) handleAttest(conn net.Conn, payload []byte) error {
	if len(payload) < 33 {
		return &badRequestError{fmt.Errorf("wire: attest request too short")}
	}
	var nonce [32]byte
	copy(nonce[:], payload[:32])
	userPub := payload[32:]
	provision, err := s.svc.ProvisionKeys(userPub)
	if err != nil {
		return fmt.Errorf("wire: provisioning: %w", err)
	}
	quote, err := attest.GenerateQuote(s.svc.Enclave(), nonce, provision)
	if err != nil {
		return fmt.Errorf("wire: quoting: %w", err)
	}
	qb, err := quote.Marshal()
	if err != nil {
		return err
	}
	s.logger.Info("attestation served", "remote", conn.RemoteAddr())
	return s.writeFrame(conn, MsgAttestReply, qb)
}

// handleInfer serves an untraced inference request (inner is MsgInferRequest
// or MsgInferBatchRequest) under a server-minted trace.
func (s *Server) handleInfer(ctx context.Context, conn net.Conn, inner MsgType, payload []byte) error {
	// The server-minted trace opens before decode and finishes just before
	// the reply frame is written (replyFraming), exactly like a traced
	// request's: once a client holds its reply, the request's trace and
	// flight report are already in the tracer's ring. The deferred Finish
	// is the error-path safety net.
	tr := s.tracer.Start("request")
	ctx = trace.With(ctx, tr)
	defer s.tracer.Finish(tr)
	if err := s.serveInfer(ctx, conn, inner, payload, &replyEnvelope{srv: s, tr: tr, plain: true}); err != nil {
		return &tracedError{traceID: trace.ID(ctx), err: err}
	}
	return nil
}

// handleTraced serves a distributed-trace envelope: the server's span tree
// joins the client-minted trace ID, and the reply (enveloped as
// MsgTracedReply) carries the server's spans + flight report back for the
// client to graft into its own trace.
func (s *Server) handleTraced(ctx context.Context, conn net.Conn, payload []byte) error {
	inner, id, flags, rest, err := ParseTracedHeader(payload)
	if err != nil {
		return &badRequestError{err}
	}
	s.metrics.Counter("wire.requests_traced").Inc()
	tr := s.tracer.StartRemote(id, "request")
	ctx = trace.With(ctx, tr)
	// Safety net: the reply path finishes the trace itself (its snapshot
	// must ride the reply), making this a no-op; on error paths it retains
	// the partial trace.
	defer s.tracer.Finish(tr)
	if inner == MsgInferRequest || inner == MsgInferBatchRequest {
		env := &replyEnvelope{srv: s, tr: tr, withSpans: flags&TracedFlagReturnSpans != 0}
		err = s.serveInfer(ctx, conn, inner, rest, env)
	} else {
		err = &badRequestError{fmt.Errorf("wire: message type %d cannot carry trace context", inner)}
	}
	if err != nil {
		return &tracedError{traceID: id, err: err}
	}
	return nil
}

// replyEnvelope carries a request's reply context: the trace to finish
// before the reply frame goes out and how to frame that reply — wrapped in
// MsgTracedReply with the trace blob for traced requests, as the plain
// inner type for untraced ones.
type replyEnvelope struct {
	srv       *Server
	tr        *trace.Trace
	withSpans bool
	// plain marks an untraced request: the server-minted trace is finished
	// but the reply carries no envelope.
	plain bool
}

// tracedBlob is the JSON payload of a MsgTracedReply envelope.
type tracedBlob struct {
	Trace  *trace.Snapshot      `json:"trace,omitempty"`
	Report *report.FlightReport `json:"report,omitempty"`
}

// replyFraming finishes the request's trace and resolves how the reply is
// framed: the plain inner type for an untraced request, MsgTracedReply with
// the header + trace blob as a prefix for a traced one. The trace is
// finished first (through the tracer, so the flight recorder and report hook
// see it) — the snapshot must be complete before the reply frame carrying it
// is encoded, which is why a traced trace's span tree ends at the
// reply-encode boundary rather than after it: the client's wait span covers
// the encode + network time from the outside.
func (e *replyEnvelope) replyFraming(inner MsgType) (MsgType, []byte) {
	if e.plain {
		e.srv.tracer.Finish(e.tr)
		return inner, nil
	}
	var blob []byte
	if e.withSpans && e.tr != nil {
		e.srv.tracer.Finish(e.tr)
		b := tracedBlob{Trace: e.tr.TakeSnapshot(), Report: report.FromTrace(e.tr)}
		if j, err := json.Marshal(b); err == nil {
			blob = j
		}
	}
	p := make([]byte, TracedReplyHeaderSize, TracedReplyHeaderSize+len(blob))
	p[0] = byte(inner)
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(blob)))
	return MsgTracedReply, append(p, blob...)
}

// serveInfer is the one inference handler. A lane batch (inner
// MsgInferBatchRequest: the client packed several images into the
// ciphertexts' CRT slots) differs from a scalar request only in the 4-byte
// lane count it reads ahead of the image, stamps onto it so the engine runs
// one slot-vector pass, and echoes ahead of the output scale.
func (s *Server) serveInfer(ctx context.Context, conn net.Conn, inner MsgType, payload []byte, env *replyEnvelope) error {
	batch := inner == MsgInferBatchRequest
	_, dspan := trace.StartSpan(ctx, "wire.decode", "wire")
	img, err := s.decodeInferRequest(batch, payload)
	dspan.Arg("bytes", float64(len(payload)))
	if batch && img != nil {
		dspan.Arg("lanes", float64(img.Lanes))
	}
	dspan.End()
	s.metrics.ObserveHistogram("wire.request_bytes", float64(len(payload)))
	if err != nil {
		return &badRequestError{err}
	}
	res, err := s.service.Infer(ctx, serve.Request{Image: img})
	if err != nil {
		return fmt.Errorf("wire: inference: %w", err)
	}
	// [lane count u32, lane batches only][output scale f64].
	var hdr [4 + 8]byte
	replyInner, n := MsgInferReply, 0
	if batch {
		replyInner, n = MsgInferBatchReply, 4
		binary.LittleEndian.PutUint32(hdr[:], uint32(img.Lanes))
	}
	binary.LittleEndian.PutUint64(hdr[n:], math.Float64bits(res.OutScale))
	n += 8
	// The framing is resolved first: it finishes the trace (and, for traced
	// requests, snapshots it into the envelope prefix), so the server span
	// tree is complete before any reply byte hits the wire.
	replyType, prefix := env.replyFraming(replyInner)
	_, espan := trace.StartSpan(ctx, "wire.encode", "wire")
	// The packed logits stream straight to the connection: the exact size is
	// known up front, so no intermediate buffer is materialized.
	replyLen := len(prefix) + n + core.CiphertextBatchPackedSize(res.Logits)
	err = WriteFrameFunc(conn, replyType, replyLen, func(w io.Writer) error {
		if len(prefix) > 0 {
			if _, werr := w.Write(prefix); werr != nil {
				return werr
			}
		}
		if _, werr := w.Write(hdr[:n]); werr != nil {
			return werr
		}
		return core.WriteCiphertextBatchPacked(w, res.Logits)
	})
	espan.Arg("bytes", float64(replyLen)).End()
	if err != nil {
		return err
	}
	s.metrics.Counter("wire.bytes_out").Add(int64(replyLen) + frameHeaderSize)
	s.metrics.ObserveHistogram("wire.reply_bytes", float64(replyLen))
	s.logger.Info("inference served",
		"remote", conn.RemoteAddr(),
		"lanes", img.Lanes,
		"logits", len(res.Logits),
		"trace_id", trace.ID(ctx))
	return nil
}

// decodeInferRequest parses an inference payload. A lane batch's count is
// read and range-checked first, from its four header bytes: the image
// decoder, which seed-expands every ciphertext it accepts, never runs for a
// request whose lane count the engine would refuse.
func (s *Server) decodeInferRequest(batch bool, payload []byte) (*core.CipherImage, error) {
	params := s.svc.Params()
	lanes := 0
	if batch {
		if len(payload) < 4 {
			return nil, fmt.Errorf("wire: infer batch request too short")
		}
		lanes = int(binary.LittleEndian.Uint32(payload))
		if lanes < 1 || lanes > params.N {
			return nil, fmt.Errorf("wire: lane count %d out of range [1, %d]", lanes, params.N)
		}
		payload = payload[4:]
	}
	img, _, err := core.UnmarshalCipherImageAuto(payload, params)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding cipher image: %w", err)
	}
	if batch {
		img.Lanes = lanes
	}
	return img, nil
}
