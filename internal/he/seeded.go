package he

import (
	"encoding/binary"
	"fmt"
	"io"

	"hesgx/internal/ring"
)

// seededCtMagic tags a seed-compressed symmetric ciphertext frame.
const seededCtMagic = uint32(0xC17E5EED)

// Seeded ciphertext wire-format flags. This writer sets both; the reader
// refuses a frame missing either.
const (
	// sctFlagPacked marks a bit-packed c0 vector.
	sctFlagPacked byte = 1 << 0
	// sctFlagRounded marks a c0 packed without its Parameters.SeededDropBits
	// low bits.
	sctFlagRounded byte = 1 << 1
)

// SeededFlagsError is the refusal of a seeded frame whose flags are not
// exactly packed|rounded — among them the full-width c0 of a frame without
// the rounded bit. The reader stops at the flags byte, so no part of such a
// frame is decoded.
type SeededFlagsError struct {
	Flags byte
}

func (e *SeededFlagsError) Error() string {
	return fmt.Sprintf("he: seeded ciphertext flags %#x, want packed|rounded %#x (full-width frames are not accepted)",
		e.Flags, sctFlagPacked|sctFlagRounded)
}

// SeededDropBits is how many low bits of c0 a seeded upload leaves off the
// wire: the largest d with B + 2^(d−1) ≤ FreshNoiseBound's B·(2n+1). A
// symmetric encryption's phase carries the single error e (‖e‖∞ ≤ B), and
// the lift back to the midpoint of c0's 2^d-wide interval moves each
// coefficient by at most 2^(d−1), so a rounded upload still sits inside the
// fresh bound every stage's prediction starts from. It is derived from the
// parameters alone, so both ends agree on it without a field on the wire.
func (p Parameters) SeededDropBits() int {
	b := ring.GaussianBound()
	fresh := p.FreshNoiseBound().w
	d := 0
	for d+1 < ring.CoeffBits(p.Q) && b+roundingError(d+1) <= fresh {
		d++
	}
	return d
}

// SeedSize is the byte length of the ChaCha8 expansion seed that replaces
// the uniform polynomial on the wire.
const SeedSize = 32

// SeededCiphertext is the seed-compressed form of a fresh symmetric FV
// encryption ct = (-(a·s + e) + Δm, a): instead of shipping both
// polynomials, the wire carries c0 plus the 32-byte ChaCha8 seed that `a`
// was expanded from. The receiver re-expands the seed once, roughly halving
// upload bytes; the seed itself costs no noise budget (the noise term is the
// same e).
// Only fresh encryptions are seed-compressible — once an evaluator touches
// c1 the seed no longer describes it. On the wire c0 also loses its
// Parameters.SeededDropBits low bits; the decoded C0 is the rounded one.
type SeededCiphertext struct {
	Params Parameters
	C0     ring.Poly
	Seed   [SeedSize]byte
}

// Expand reconstructs the full two-polynomial ciphertext by re-deriving
// a = Uniform(seed). The result is a coefficient-form ciphertext
// indistinguishable from one shipped whole.
func (sc *SeededCiphertext) Expand() (*Ciphertext, error) {
	if !sc.Params.Valid() {
		return nil, fmt.Errorf("he: seeded ciphertext has no parameters")
	}
	r := sc.Params.Ring()
	if err := r.ValidatePoly(sc.C0); err != nil {
		return nil, fmt.Errorf("he: seeded ciphertext c0: %w", err)
	}
	a := r.NewPoly()
	r.UniformFromSeed(sc.Seed, a)
	return &Ciphertext{Params: sc.Params, Polys: []ring.Poly{sc.C0, a}, Form: CoeffForm}, nil
}

// PackedSize returns the exact serialized size of Write for sc.
func (sc *SeededCiphertext) PackedSize() int {
	return SeededCiphertextWireSize(sc.Params)
}

// SeededCiphertextWireSize returns the encoded size of a seeded ciphertext
// under params. Every seeded frame for one parameter set is the same length,
// so decoders can bound an element count against the payload bytes actually
// present before allocating count-sized storage.
func SeededCiphertextWireSize(params Parameters) int {
	width := ring.CoeffBits(params.Q) - params.SeededDropBits()
	return 25 + SeedSize + ring.PackedPolySize(params.N, width)
}

// Write serializes the seeded ciphertext:
// [magic u32][flags u8][n u32][q u64][t u64][seed 32B][packed c0], c0 at
// CoeffBits(q) − SeededDropBits bits per coefficient.
func (sc *SeededCiphertext) Write(w io.Writer) error {
	hdr := []any{
		seededCtMagic,
		sctFlagPacked | sctFlagRounded,
		uint32(sc.Params.N),
		sc.Params.Q,
		sc.Params.T,
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("he: write seeded ciphertext header: %w", err)
		}
	}
	if _, err := w.Write(sc.Seed[:]); err != nil {
		return fmt.Errorf("he: write seeded ciphertext seed: %w", err)
	}
	if err := ring.WritePolyPacked(w, sc.C0, sc.Params.Q, sc.Params.SeededDropBits()); err != nil {
		return fmt.Errorf("he: write seeded ciphertext c0: %w", err)
	}
	return nil
}

// ReadSeededCiphertext deserializes and validates a seeded ciphertext
// against params, lifting the rounded c0 back to full residues. Hostile
// seeds are harmless (any seed expands to some uniform polynomial); hostile
// lengths and coefficients error before use, and a frame without the
// packed and rounded flags with a *SeededFlagsError before its body is read.
func ReadSeededCiphertext(r io.Reader, params Parameters) (*SeededCiphertext, error) {
	var (
		magic, n uint32
		flags    byte
		q, t     uint64
	)
	for _, v := range []any{&magic, &flags, &n, &q, &t} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("he: read seeded ciphertext header: %w", err)
		}
	}
	if magic != seededCtMagic {
		return nil, fmt.Errorf("he: bad seeded ciphertext magic %#x", magic)
	}
	if flags != sctFlagPacked|sctFlagRounded {
		return nil, &SeededFlagsError{Flags: flags}
	}
	if int(n) != params.N || q != params.Q || t != params.T {
		return nil, fmt.Errorf("he: seeded ciphertext parameters (n=%d q=%d t=%d) do not match (n=%d q=%d t=%d)",
			n, q, t, params.N, params.Q, params.T)
	}
	sc := &SeededCiphertext{Params: params}
	if _, err := io.ReadFull(r, sc.Seed[:]); err != nil {
		return nil, fmt.Errorf("he: read seeded ciphertext seed: %w", err)
	}
	c0, err := ring.ReadPolyPacked(r, params.Q, params.SeededDropBits())
	if err != nil {
		return nil, fmt.Errorf("he: read seeded ciphertext c0: %w", err)
	}
	if err := params.Ring().ValidatePoly(c0); err != nil {
		return nil, fmt.Errorf("he: seeded ciphertext c0: %w", err)
	}
	sc.C0 = c0
	return sc, nil
}

// MarshalSeededCiphertext renders sc to bytes.
func MarshalSeededCiphertext(sc *SeededCiphertext) ([]byte, error) {
	buf := make([]byte, 0, sc.PackedSize())
	w := newAppendWriter(buf)
	if err := sc.Write(w); err != nil {
		return nil, err
	}
	return w.b, nil
}

// appendWriter is a minimal io.Writer over an append-grown slice, avoiding
// the bookkeeping of bytes.Buffer for size-precomputed encodes.
type appendWriter struct{ b []byte }

func newAppendWriter(b []byte) *appendWriter { return &appendWriter{b: b} }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
