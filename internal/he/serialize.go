package he

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"hesgx/internal/ring"
)

// Serialization magics distinguish key material types on the wire.
const (
	paramsMagic = uint32(0x46565052) // "FVPR"
	skMagic     = uint32(0x4656534B) // "FVSK"
	pkMagic     = uint32(0x4656504B) // "FVPK"
	ekMagic     = uint32(0x4656454B) // "FVEK"
)

// WriteParameters serializes the parameter set.
func WriteParameters(w io.Writer, p Parameters) error {
	if !p.Valid() {
		return fmt.Errorf("he: cannot serialize invalid parameters")
	}
	for _, v := range []any{paramsMagic, uint32(p.N), p.Q, p.T, uint32(p.DecompBaseBits)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("he: write parameters: %w", err)
		}
	}
	return nil
}

// ReadParameters deserializes and re-validates a parameter set.
func ReadParameters(r io.Reader) (Parameters, error) {
	var (
		magic, n, base uint32
		q, t           uint64
	)
	for _, v := range []any{&magic, &n, &q, &t, &base} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return Parameters{}, fmt.Errorf("he: read parameters: %w", err)
		}
	}
	if magic != paramsMagic {
		return Parameters{}, fmt.Errorf("he: bad parameters magic %#x", magic)
	}
	if n > 1<<16 {
		return Parameters{}, fmt.Errorf("he: implausible ring degree %d", n)
	}
	return NewParameters(int(n), q, t, int(base))
}

// MarshalParameters renders parameters to a byte slice.
func MarshalParameters(p Parameters) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteParameters(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalParameters parses parameters from a byte slice.
func UnmarshalParameters(b []byte) (Parameters, error) {
	return ReadParameters(bytes.NewReader(b))
}

// WriteSecretKey serializes sk. Callers are responsible for protecting the
// bytes (the enclave seals them; the wire layer only sends them inside the
// attestation-established channel).
func WriteSecretKey(w io.Writer, sk *SecretKey) error {
	if err := binary.Write(w, binary.LittleEndian, skMagic); err != nil {
		return fmt.Errorf("he: write secret key: %w", err)
	}
	if err := WriteParameters(w, sk.Params); err != nil {
		return err
	}
	return ring.WritePoly(w, sk.S)
}

// ReadSecretKey deserializes a secret key.
func ReadSecretKey(r io.Reader) (*SecretKey, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read secret key: %w", err)
	}
	if magic != skMagic {
		return nil, fmt.Errorf("he: bad secret key magic %#x", magic)
	}
	params, err := ReadParameters(r)
	if err != nil {
		return nil, err
	}
	s, err := ring.ReadPoly(r)
	if err != nil {
		return nil, err
	}
	if err := params.Ring().ValidatePoly(s); err != nil {
		return nil, fmt.Errorf("he: secret key poly: %w", err)
	}
	sk := &SecretKey{Params: params, S: s}
	sk.precompute()
	return sk, nil
}

// WritePublicKey serializes pk.
func WritePublicKey(w io.Writer, pk *PublicKey) error {
	if err := binary.Write(w, binary.LittleEndian, pkMagic); err != nil {
		return fmt.Errorf("he: write public key: %w", err)
	}
	if err := WriteParameters(w, pk.Params); err != nil {
		return err
	}
	if err := ring.WritePoly(w, pk.P0); err != nil {
		return err
	}
	return ring.WritePoly(w, pk.P1)
}

// ReadPublicKey deserializes a public key.
func ReadPublicKey(r io.Reader) (*PublicKey, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read public key: %w", err)
	}
	if magic != pkMagic {
		return nil, fmt.Errorf("he: bad public key magic %#x", magic)
	}
	params, err := ReadParameters(r)
	if err != nil {
		return nil, err
	}
	p0, err := ring.ReadPoly(r)
	if err != nil {
		return nil, err
	}
	p1, err := ring.ReadPoly(r)
	if err != nil {
		return nil, err
	}
	for _, p := range []ring.Poly{p0, p1} {
		if err := params.Ring().ValidatePoly(p); err != nil {
			return nil, fmt.Errorf("he: public key poly: %w", err)
		}
	}
	return &PublicKey{Params: params, P0: p0, P1: p1}, nil
}

// WriteEvaluationKeys serializes ek (NTT-domain polys are written as-is).
func WriteEvaluationKeys(w io.Writer, ek *EvaluationKeys) error {
	if err := binary.Write(w, binary.LittleEndian, ekMagic); err != nil {
		return fmt.Errorf("he: write evaluation keys: %w", err)
	}
	if err := WriteParameters(w, ek.Params); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ek.K0))); err != nil {
		return fmt.Errorf("he: write evaluation keys count: %w", err)
	}
	for i := range ek.K0 {
		if err := ring.WritePoly(w, ek.K0[i]); err != nil {
			return err
		}
		if err := ring.WritePoly(w, ek.K1[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEvaluationKeys deserializes evaluation keys.
func ReadEvaluationKeys(r io.Reader) (*EvaluationKeys, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read evaluation keys: %w", err)
	}
	if magic != ekMagic {
		return nil, fmt.Errorf("he: bad evaluation keys magic %#x", magic)
	}
	params, err := ReadParameters(r)
	if err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("he: read evaluation keys count: %w", err)
	}
	if count == 0 || count > 64 {
		return nil, fmt.Errorf("he: implausible evaluation key digit count %d", count)
	}
	ek := &EvaluationKeys{
		Params: params,
		K0:     make([]ring.Poly, count),
		K1:     make([]ring.Poly, count),
	}
	for i := 0; i < int(count); i++ {
		if ek.K0[i], err = ring.ReadPoly(r); err != nil {
			return nil, err
		}
		if ek.K1[i], err = ring.ReadPoly(r); err != nil {
			return nil, err
		}
		for _, p := range []ring.Poly{ek.K0[i], ek.K1[i]} {
			if err := params.Ring().ValidatePoly(p); err != nil {
				return nil, fmt.Errorf("he: evaluation key poly: %w", err)
			}
		}
	}
	return ek, nil
}

// MarshalCiphertext renders a ciphertext to bytes (fixed-width ECALL ABI).
func MarshalCiphertext(ct *Ciphertext) ([]byte, error) {
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalCiphertext parses a fixed-width (ECALL ABI) ciphertext from bytes.
func UnmarshalCiphertext(b []byte, params Parameters) (*Ciphertext, error) {
	return ReadCiphertext(bytes.NewReader(b), params)
}

// MarshalCiphertextPacked renders a ciphertext in the packed network layout.
func MarshalCiphertextPacked(ct *Ciphertext) ([]byte, error) {
	w := newAppendWriter(make([]byte, 0, ct.PackedSize()))
	if err := ct.WritePacked(w); err != nil {
		return nil, err
	}
	return w.b, nil
}

// UnmarshalCiphertextPacked parses a packed (network) ciphertext from bytes.
func UnmarshalCiphertextPacked(b []byte, params Parameters) (*Ciphertext, error) {
	return ReadCiphertextPacked(bytes.NewReader(b), params)
}

// UnmarshalSeededCiphertext parses a seed-compressed ciphertext from bytes.
func UnmarshalSeededCiphertext(b []byte, params Parameters) (*SeededCiphertext, error) {
	return ReadSeededCiphertext(bytes.NewReader(b), params)
}

// MarshalPublicKey renders pk to bytes.
func MarshalPublicKey(pk *PublicKey) ([]byte, error) {
	var buf bytes.Buffer
	if err := WritePublicKey(&buf, pk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalPublicKey parses pk from bytes.
func UnmarshalPublicKey(b []byte) (*PublicKey, error) {
	return ReadPublicKey(bytes.NewReader(b))
}

// MarshalSecretKey renders sk to bytes.
func MarshalSecretKey(sk *SecretKey) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteSecretKey(&buf, sk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalSecretKey parses sk from bytes.
func UnmarshalSecretKey(b []byte) (*SecretKey, error) {
	return ReadSecretKey(bytes.NewReader(b))
}
