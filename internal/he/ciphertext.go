package he

import (
	"encoding/binary"
	"fmt"
	"io"

	"hesgx/internal/ring"
)

// Plaintext is a polynomial with coefficients in [0, T), produced by an
// encoder (see internal/encoding) or directly for raw scalar work.
type Plaintext struct {
	Params Parameters
	Poly   ring.Poly
}

// NewPlaintext allocates a zero plaintext.
func NewPlaintext(params Parameters) *Plaintext {
	return &Plaintext{Params: params, Poly: params.Ring().NewPoly()}
}

// Copy deep-copies the plaintext.
func (p *Plaintext) Copy() *Plaintext {
	return &Plaintext{Params: p.Params, Poly: p.Poly.Copy()}
}

// Validate checks coefficient ranges against the plaintext modulus.
func (p *Plaintext) Validate() error {
	if len(p.Poly.Coeffs) != p.Params.N {
		return fmt.Errorf("he: plaintext degree %d, want %d", len(p.Poly.Coeffs), p.Params.N)
	}
	for i, c := range p.Poly.Coeffs {
		if c >= p.Params.T {
			return fmt.Errorf("he: plaintext coefficient %d = %d >= t = %d", i, c, p.Params.T)
		}
	}
	return nil
}

// Form tracks which domain a ciphertext's polynomials live in. Ciphertexts
// are in coefficient form at rest (on the wire, at the enclave boundary, at
// decryption); the engine's linear layers hoist them into NTT form so every
// weight product is a pointwise multiply-accumulate.
type Form uint8

const (
	// CoeffForm is the coefficient (time) domain — the zero value, so
	// freshly constructed and deserialized ciphertexts are coefficient
	// form by default.
	CoeffForm Form = iota
	// NTTForm is the evaluation domain: every component poly holds NTT
	// coefficients. Only Add/AddPlain/MulScalar-style linear ops and the
	// pointwise plaintext products are defined on this form.
	NTTForm
)

// String implements fmt.Stringer for error messages.
func (f Form) String() string {
	switch f {
	case CoeffForm:
		return "coeff"
	case NTTForm:
		return "ntt"
	default:
		return fmt.Sprintf("form(%d)", uint8(f))
	}
}

// Ciphertext is an FV ciphertext of size 2 (fresh) or 3 (after an
// unrelinearized multiplication). Form says which domain Polys live in;
// serialization and decryption require CoeffForm.
type Ciphertext struct {
	Params Parameters
	Polys  []ring.Poly
	Form   Form
}

// NewCiphertext allocates a zero ciphertext of the given size (2 or 3).
func NewCiphertext(params Parameters, size int) *Ciphertext {
	polys := make([]ring.Poly, size)
	for i := range polys {
		polys[i] = params.Ring().NewPoly()
	}
	return &Ciphertext{Params: params, Polys: polys}
}

// Size returns the number of polynomial components.
func (ct *Ciphertext) Size() int { return len(ct.Polys) }

// Copy deep-copies the ciphertext, preserving its form.
func (ct *Ciphertext) Copy() *Ciphertext {
	polys := make([]ring.Poly, len(ct.Polys))
	for i := range polys {
		polys[i] = ct.Polys[i].Copy()
	}
	return &Ciphertext{Params: ct.Params, Polys: polys, Form: ct.Form}
}

// ToNTT converts the ciphertext to evaluation form in place. A no-op if it
// is already NTT form.
func (ct *Ciphertext) ToNTT() {
	if ct.Form == NTTForm {
		return
	}
	r := ct.Params.Ring()
	for _, p := range ct.Polys {
		r.NTT(p)
	}
	ct.Form = NTTForm
}

// ToCoeff converts the ciphertext back to coefficient form in place. A no-op
// if it is already coefficient form.
func (ct *Ciphertext) ToCoeff() {
	if ct.Form == CoeffForm {
		return
	}
	r := ct.Params.Ring()
	for _, p := range ct.Polys {
		r.INTT(p)
	}
	ct.Form = CoeffForm
}

// Validate checks structural well-formedness of a (possibly deserialized)
// ciphertext before it is used.
func (ct *Ciphertext) Validate() error {
	if n := len(ct.Polys); n < 2 || n > 3 {
		return fmt.Errorf("he: ciphertext size %d, want 2 or 3", n)
	}
	r := ct.Params.Ring()
	for i, p := range ct.Polys {
		if err := r.ValidatePoly(p); err != nil {
			return fmt.Errorf("he: ciphertext component %d: %w", i, err)
		}
	}
	return nil
}

// ciphertextMagic tags the fixed-width codec (8 bytes per coefficient): the
// in-process ECALL ABI between the untrusted runtime and the enclave, read
// only by ReadCiphertext and never reachable from a socket.
// ciphertextMagicV2 tags the packed layout, the only ciphertext encoding the
// network carries: a flags byte followed by ceil(log2 q)-bit packed
// coefficient vectors. The magics differ so neither decoder accepts the
// other's frames.
const (
	ciphertextMagic   = uint32(0xC17E57F1)
	ciphertextMagicV2 = uint32(0xC17E57F2)
)

// Packed-ciphertext flags.
const (
	// ctFlagPacked marks bit-packed coefficient vectors (always set by this
	// writer; reserved so a future layout can clear it).
	ctFlagPacked byte = 1 << 0
)

// Write serializes the ciphertext in the fixed-width ECALL ABI layout. The
// parameter set is identified by (N, Q, T) so the receiver can reject
// mismatched parameters. Evaluation-form ciphertexts are rejected loudly:
// both codecs are coefficient-domain only, and silently emitting NTT
// coefficients would decrypt to garbage.
func (ct *Ciphertext) Write(w io.Writer) error {
	if ct.Form != CoeffForm {
		return fmt.Errorf("he: cannot serialize %v-form ciphertext; call ToCoeff first", ct.Form)
	}
	hdr := []any{
		ciphertextMagic,
		uint32(ct.Params.N),
		ct.Params.Q,
		ct.Params.T,
		uint32(len(ct.Polys)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("he: write ciphertext header: %w", err)
		}
	}
	for _, p := range ct.Polys {
		if err := ring.WritePoly(w, p); err != nil {
			return fmt.Errorf("he: write ciphertext poly: %w", err)
		}
	}
	return nil
}

// WireSize returns the exact serialized size of Write for ct, letting batch
// encoders presize their buffers instead of growing through doubling.
func (ct *Ciphertext) WireSize() int {
	n := 28
	for _, p := range ct.Polys {
		n += 4 + 8*len(p.Coeffs)
	}
	return n
}

// PackedSize returns the exact serialized size of WritePacked(w, d0, d1)
// for ct.
func (ct *Ciphertext) PackedSize(d0, d1 int) int {
	width := ring.CoeffBits(ct.Params.Q)
	n := 29
	for i := range ct.Polys {
		n += ring.PackedPolySize(ct.Params.N, width-polyDrop(i, d0, d1))
	}
	return n
}

// MinCiphertextWireSize returns the smallest encoding a ciphertext under
// params can occupy on the network at drops (d0, d1) — a size-2 packed
// frame. Decoders use it to reject element counts the remaining payload
// cannot possibly hold, before allocating count-sized storage.
func MinCiphertextWireSize(params Parameters, d0, d1 int) int {
	width := ring.CoeffBits(params.Q)
	return 29 + ring.PackedPolySize(params.N, width-d0) + ring.PackedPolySize(params.N, width-d1)
}

// polyDrop is the drop count of component i: d0 for c0, d1 for c1.
func polyDrop(i, d0, d1 int) int {
	if i == 0 {
		return d0
	}
	return d1
}

// WritePacked serializes the ciphertext in the packed network layout:
// [magic u32][flags u8][n u32][q u64][t u64][size u32] followed by each
// polynomial bit-packed at ceil(log2 q) bits per coefficient, less the d0
// low bits of every c0 coefficient and the d1 low bits of every c1
// coefficient (ring.WritePolyPacked; (0, 0) is lossless). The frame does not
// record the drops: whoever frames it carries them to ReadCiphertextPacked.
// Decryption stays exact while the ciphertext's noise bound after
// NoiseBound.Round(d0, d1) keeps budget; only size-2 ciphertexts round,
// because that bound covers c0 and c1·s alone. Like Write, it refuses
// evaluation-form ciphertexts loudly.
func (ct *Ciphertext) WritePacked(w io.Writer, d0, d1 int) error {
	if ct.Form != CoeffForm {
		return fmt.Errorf("he: cannot serialize %v-form ciphertext; call ToCoeff first", ct.Form)
	}
	if (d0 != 0 || d1 != 0) && len(ct.Polys) != 2 {
		return fmt.Errorf("he: cannot round a size-%d ciphertext", len(ct.Polys))
	}
	hdr := []any{
		ciphertextMagicV2,
		ctFlagPacked,
		uint32(ct.Params.N),
		ct.Params.Q,
		ct.Params.T,
		uint32(len(ct.Polys)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("he: write packed ciphertext header: %w", err)
		}
	}
	for i, p := range ct.Polys {
		if err := ring.WritePolyPacked(w, p, ct.Params.Q, polyDrop(i, d0, d1)); err != nil {
			return fmt.Errorf("he: write packed ciphertext poly: %w", err)
		}
	}
	return nil
}

// readCiphertextBody parses the post-magic remainder of a ciphertext frame.
// packed selects the bit-packed coefficient codec, at drops (d0, d1).
func readCiphertextBody(r io.Reader, params Parameters, packed bool, d0, d1 int) (*Ciphertext, error) {
	var (
		n, size uint32
		q, t    uint64
	)
	for _, v := range []any{&n, &q, &t, &size} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("he: read ciphertext header: %w", err)
		}
	}
	if int(n) != params.N || q != params.Q || t != params.T {
		return nil, fmt.Errorf("he: ciphertext parameters (n=%d q=%d t=%d) do not match (n=%d q=%d t=%d)",
			n, q, t, params.N, params.Q, params.T)
	}
	if size < 2 || size > 3 {
		return nil, fmt.Errorf("he: ciphertext size %d out of range", size)
	}
	if (d0 != 0 || d1 != 0) && size != 2 {
		return nil, fmt.Errorf("he: rounded ciphertext of size %d", size)
	}
	ct := &Ciphertext{Params: params, Polys: make([]ring.Poly, size)}
	for i := range ct.Polys {
		var (
			p   ring.Poly
			err error
		)
		if packed {
			p, err = ring.ReadPolyPacked(r, params.Q, polyDrop(i, d0, d1))
		} else {
			p, err = ring.ReadPoly(r)
		}
		if err != nil {
			return nil, fmt.Errorf("he: read ciphertext poly %d: %w", i, err)
		}
		ct.Polys[i] = p
	}
	if err := ct.Validate(); err != nil {
		return nil, err
	}
	return ct, nil
}

// ReadCiphertext deserializes a fixed-width (ECALL ABI) ciphertext and
// validates it against params.
func ReadCiphertext(r io.Reader, params Parameters) (*Ciphertext, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read ciphertext header: %w", err)
	}
	if magic != ciphertextMagic {
		return nil, fmt.Errorf("he: bad ciphertext magic %#x", magic)
	}
	return readCiphertextBody(r, params, false, 0, 0)
}

// ReadCiphertextPacked deserializes a packed (network) ciphertext written by
// WritePacked at drops (d0, d1), lifting every coefficient back to a full
// residue, and validates it against params.
func ReadCiphertextPacked(r io.Reader, params Parameters, d0, d1 int) (*Ciphertext, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read ciphertext header: %w", err)
	}
	if magic != ciphertextMagicV2 {
		return nil, fmt.Errorf("he: bad packed ciphertext magic %#x", magic)
	}
	var flags byte
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("he: read ciphertext flags: %w", err)
	}
	if flags&ctFlagPacked == 0 {
		return nil, fmt.Errorf("he: packed ciphertext without packed flag (flags %#x)", flags)
	}
	return readCiphertextBody(r, params, true, d0, d1)
}
