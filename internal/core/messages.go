// Package core implements the paper's contribution: the hybrid
// privacy-preserving CNN inference framework of §IV. Linear layers
// (convolution, fully connected) run homomorphically outside the enclave on
// FV ciphertexts with pre-encoded integer weights; non-polynomial layers
// (Sigmoid, pooling) cross into the (simulated) SGX enclave, which decrypts,
// computes exactly in plaintext, and re-encrypts — eliminating polynomial
// approximation error and refreshing ciphertext noise as a side effect.
// The enclave also generates and distributes the HE keys through remote
// attestation (§IV-A), replacing the trusted third party of pure-HE designs.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"hesgx/internal/he"
)

// payloadPool recycles ECALL payload buffers. Lane-packed batches run to
// hundreds of megabytes; allocating them fresh each call forces the runtime
// to zero a reused span before every encode, which profiles as the dominant
// cost of a pack. Ownership is strictly linear: the encoder takes a buffer
// from the pool, exactly one consumer returns it (Nonlinear, for the request
// payload and for the reply batch the enclave encoded), and buffers that
// escape to long-lived owners (wire marshals) simply never come back.
var payloadPool sync.Pool

// getPayloadBuffer returns an empty bytes.Buffer with at least n bytes of
// capacity, reusing pooled backing storage when it fits.
func getPayloadBuffer(n int) *bytes.Buffer {
	if v := payloadPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return bytes.NewBuffer(b[:0])
		}
	}
	return bytes.NewBuffer(make([]byte, 0, n))
}

// putPayload returns a payload slice's backing storage to the pool. Callers
// must be the buffer's sole remaining owner.
func putPayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// Boundary message codecs: ECALL payloads cross the enclave boundary as
// bytes, exactly like EDL-marshalled buffers in the SGX SDK.

// writeU32/readU32 are little-endian framing helpers.
func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := r.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

// putU32/putU64/leU32 are the slice-level little-endian helpers of the
// streaming (non-bytes.Buffer) encode paths.
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func leU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }

func readU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := r.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// maxBatchCiphertexts bounds deserialized batch sizes.
const maxBatchCiphertexts = 1 << 20

// encodeCiphertextBatch serializes a batch of ciphertexts into an exactly
// presized, pool-backed buffer: lane-packed batches run to hundreds of
// megabytes, and growing through doubling would copy (and zero) the payload
// several times over.
func encodeCiphertextBatch(cts []*he.Ciphertext) ([]byte, error) {
	size := 4
	for i, ct := range cts {
		if ct == nil {
			return nil, fmt.Errorf("core: nil ciphertext %d in batch", i)
		}
		size += ct.WireSize()
	}
	buf := getPayloadBuffer(size)
	writeU32(buf, uint32(len(cts)))
	for i, ct := range cts {
		if err := ct.Write(buf); err != nil {
			return nil, fmt.Errorf("core: encoding batch element %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

// decodeCiphertextBatch reverses encodeCiphertextBatch, validating against
// params.
func decodeCiphertextBatch(b []byte, params he.Parameters) ([]*he.Ciphertext, error) {
	r := bytes.NewReader(b)
	n, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("core: batch length: %w", err)
	}
	if n > maxBatchCiphertexts {
		return nil, fmt.Errorf("core: implausible batch size %d", n)
	}
	out := make([]*he.Ciphertext, n)
	for i := range out {
		ct, err := he.ReadCiphertext(r, params)
		if err != nil {
			return nil, fmt.Errorf("core: decoding batch element %d: %w", i, err)
		}
		out[i] = ct
	}
	return out, nil
}

// nonlinearRequest is the payload for enclave non-linear layer calls:
// the ciphertext batch plus the fixed-point scales needed to dequantize
// inputs and requantize outputs.
type nonlinearRequest struct {
	// InScale is the fixed-point scale of the incoming integers.
	InScale uint64
	// OutScale is the fixed-point scale the enclave re-encrypts at.
	OutScale uint64
	// Divisor divides decrypted values before the non-linearity (used by
	// pooling division; 1 otherwise).
	Divisor uint64
	// Width/Height/Channels describe feature-map geometry for pooling calls.
	Width, Height, Channels uint32
	// Window is the pooling window size for pooling calls.
	Window uint32
	// SIMD selects slot-packed operation: the enclave decodes every CRT
	// slot of each ciphertext instead of the constant coefficient (§VIII).
	SIMD uint32
	// Act selects the activation kind (nn.ActKind values): on activation
	// calls 0 falls back to the enclave's configured default, on whole-map
	// pooling calls non-zero makes the enclave apply that activation to the
	// decrypted map before pooling it. Carrying the kind in the request
	// keeps concurrent inferences with different activations from racing on
	// enclave state.
	Act uint32
	// Lanes is the lane count for lane pack/demux calls: how many scalar
	// ciphertext groups map onto the slots of each packed ciphertext.
	Lanes uint32
	// CoeffOut selects a whole-map pool's coefficient-packed output layout:
	// one ciphertext carrying pooled value i at plaintext coefficient i.
	CoeffOut uint32
	// CoeffIn is how many map values each input ciphertext of a scalar-layout
	// whole-map pool carries, flat channel-major value i at coefficient
	// i mod CoeffIn of ciphertext i div CoeffIn (0 reads as 1: one value per
	// ciphertext, at the constant coefficient).
	CoeffIn uint32
	CTs     []byte
}

// nonlinearRequestHeaderSize is the fixed envelope ahead of the batch:
// three u64 scales, nine u32 fields, and the u32 payload length.
const nonlinearRequestHeaderSize = 3*8 + 9*4 + 4

// writeHeader emits the fixed request envelope declaring ctLen payload
// bytes to follow.
func (m *nonlinearRequest) writeHeader(buf *bytes.Buffer, ctLen uint32) {
	writeU64(buf, m.InScale)
	writeU64(buf, m.OutScale)
	writeU64(buf, m.Divisor)
	writeU32(buf, m.Width)
	writeU32(buf, m.Height)
	writeU32(buf, m.Channels)
	writeU32(buf, m.Window)
	writeU32(buf, m.SIMD)
	writeU32(buf, m.Act)
	writeU32(buf, m.Lanes)
	writeU32(buf, m.CoeffOut)
	writeU32(buf, m.CoeffIn)
	writeU32(buf, ctLen)
}

// marshalWithBatch serializes the request envelope with the ciphertext
// batch encoded directly into the payload — one pass over the batch, no
// intermediate batch buffer (a 64-lane pack's batch alone runs to hundreds
// of megabytes).
func (m *nonlinearRequest) marshalWithBatch(cts []*he.Ciphertext) ([]byte, error) {
	size := 4
	for i, ct := range cts {
		if ct == nil {
			return nil, fmt.Errorf("core: nil ciphertext %d in batch", i)
		}
		size += ct.WireSize()
	}
	buf := getPayloadBuffer(nonlinearRequestHeaderSize + size)
	m.writeHeader(buf, uint32(size))
	writeU32(buf, uint32(len(cts)))
	for i, ct := range cts {
		if err := ct.Write(buf); err != nil {
			return nil, fmt.Errorf("core: encoding batch element %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

func unmarshalNonlinearRequest(b []byte) (*nonlinearRequest, error) {
	r := bytes.NewReader(b)
	m := &nonlinearRequest{}
	var err error
	if m.InScale, err = readU64(r); err != nil {
		return nil, fmt.Errorf("core: request in-scale: %w", err)
	}
	if m.OutScale, err = readU64(r); err != nil {
		return nil, fmt.Errorf("core: request out-scale: %w", err)
	}
	if m.Divisor, err = readU64(r); err != nil {
		return nil, fmt.Errorf("core: request divisor: %w", err)
	}
	for _, dst := range []*uint32{&m.Width, &m.Height, &m.Channels, &m.Window, &m.SIMD, &m.Act, &m.Lanes, &m.CoeffOut, &m.CoeffIn} {
		if *dst, err = readU32(r); err != nil {
			return nil, fmt.Errorf("core: request geometry: %w", err)
		}
	}
	n, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("core: request payload length: %w", err)
	}
	if int(n) != r.Len() {
		return nil, fmt.Errorf("core: request payload length %d != %d remaining", n, r.Len())
	}
	// Alias the payload tail instead of copying — same single-owner contract
	// as replies.
	m.CTs = b[len(b)-r.Len():]
	return m, nil
}
