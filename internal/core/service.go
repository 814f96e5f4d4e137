package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"hesgx/internal/he"
	"hesgx/internal/trace"
)

// Server-side (untrusted) wrappers over the enclave's ECALLs. These run in
// the edge server process and only ever handle ciphertext bytes.
//
// Nonlinear is the single entry point: every decrypt–compute–re-encrypt
// ECALL is described by a NonlinearOp value.

// Nonlinear executes one non-linear op over a ciphertext batch inside the
// enclave: the batch crosses the boundary once, trusted code decrypts,
// computes op in plaintext, re-encrypts, and the fresh batch crosses back
// (§IV-D). ctx is honoured at the enclave boundary: a cancelled context
// fails the call before paying the transition.
func (s *EnclaveService) Nonlinear(ctx context.Context, op NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	name, err := op.Kind.ecallName()
	if err != nil {
		return nil, err
	}
	var payload []byte
	if op.Kind == OpRefresh {
		// Refresh crosses as a bare batch; every other op carries the
		// dequantize/requantize envelope, encoded in one pass over the
		// batch so lane-sized payloads never pass through an intermediate
		// buffer.
		payload, err = encodeCiphertextBatch(cts)
	} else {
		req := op.request(nil)
		payload, err = req.marshalWithBatch(cts)
	}
	if err != nil {
		return nil, err
	}
	_, span := trace.StartSpan(ctx, "ecall."+op.Kind.String(), "sgx")
	start := time.Now()
	out, cs, err := s.enclave.ECallContextStats(ctx, name, payload)
	wall := time.Since(start)
	// The enclave consumed the request payload synchronously; recycle it.
	putPayload(payload)
	if err != nil {
		span.Arg("error", 1).End()
		return nil, err
	}
	// Attribute this boundary crossing's simulated SGX cost to the
	// request(s) that paid it — a batched call's span lands in every
	// joined trace.
	span.Arg("cts", float64(len(cts)))
	if op.CoeffIn > 0 {
		span.Arg("coeff_in", float64(op.CoeffIn))
	}
	span.Arg("transitions", float64(cs.Transitions())).
		Arg("page_faults", float64(cs.PageFaults)).
		Arg("overhead_ms", durMS(cs.Overhead)).
		Arg("compute_ms", durMS(cs.Compute)).
		End()
	if s.metrics != nil {
		s.metrics.ObserveHistogram("ecall."+op.Kind.String()+"_ms", durMS(wall))
		s.metrics.Counter("ecall.transitions").Add(int64(cs.Transitions()))
		s.metrics.Counter("ecall.page_faults").Add(int64(cs.PageFaults))
	}
	res, err := decodeCiphertextBatch(out, s.params)
	// Decoding copied the batch into fresh ciphertexts; the reply buffer is
	// dead and can be recycled.
	putPayload(out)
	return res, err
}

// durMS converts a duration to fractional milliseconds, the unit every
// latency metric uses.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// GaloisKeys asks the enclave to generate rotation key-switch keys for the
// given rotation steps at decomposition base 2^baseBits (0 selects
// he.DefaultGaloisBaseBits). The engine calls this once per packed layout;
// wire clients may instead upload a key set they generated themselves.
func (s *EnclaveService) GaloisKeys(steps []int, baseBits int) (*he.GaloisKeys, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("core: empty rotation step set")
	}
	var buf bytes.Buffer
	writeU32(&buf, uint32(baseBits))
	writeU32(&buf, uint32(len(steps)))
	for _, step := range steps {
		writeU64(&buf, uint64(int64(step)))
	}
	out, err := s.enclave.ECall(ECallGaloisKeys, buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("core: generating galois keys: %w", err)
	}
	gk, err := he.UnmarshalGaloisKeys(out)
	if err != nil {
		return nil, fmt.Errorf("core: decoding galois keys: %w", err)
	}
	return gk, nil
}

// ProvisionKeys performs the server side of key delivery: it forwards the
// user's ephemeral ECDH public key into the enclave and returns the opaque
// provisioning payload for embedding in an attestation quote. The server
// cannot read the keys inside.
func (s *EnclaveService) ProvisionKeys(userECDHPub []byte) ([]byte, error) {
	out, err := s.enclave.ECall(ECallProvision, userECDHPub)
	if err != nil {
		return nil, fmt.Errorf("core: provisioning keys: %w", err)
	}
	return out, nil
}
