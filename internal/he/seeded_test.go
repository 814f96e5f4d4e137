package he

import (
	"bytes"
	"testing"

	"hesgx/internal/ring"
)

func newSymmetricContext(t testing.TB, seed uint64) (*testContext, *SymmetricEncryptor) {
	t.Helper()
	tc := newTestContext(t, seed)
	senc, err := NewSymmetricEncryptor(tc.sk, ring.NewSeededSource(seed+100))
	if err != nil {
		t.Fatal(err)
	}
	return tc, senc
}

// TestSeededEncryptDecryptsLikePublicKey is the equivalence property behind
// the seeded upload path: a symmetric seed-compressed encryption, expanded
// on the receiver, must decrypt to exactly the plaintext that the public-key
// path produces — the two ciphertexts are interchangeable downstream.
func TestSeededEncryptDecryptsLikePublicKey(t *testing.T) {
	tc, senc := newSymmetricContext(t, 40)
	src := ring.NewSeededSource(41)
	for trial := 0; trial < 10; trial++ {
		pt := randomPlaintext(tc, src, 32)

		sc, err := senc.EncryptSeeded(pt)
		if err != nil {
			t.Fatal(err)
		}
		expanded, err := sc.Expand()
		if err != nil {
			t.Fatal(err)
		}
		fromSeeded := decryptOK(t, tc, expanded)

		ctPub, err := tc.enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		fromPub := decryptOK(t, tc, ctPub)

		if !fromSeeded.Poly.Equal(pt.Poly) {
			t.Fatal("seeded path lost the plaintext")
		}
		if !fromSeeded.Poly.Equal(fromPub.Poly) {
			t.Fatal("seeded and public-key paths decrypt differently")
		}
	}
}

// TestSeededExpandDeterministic pins the wire contract: the seed alone fully
// determines the expanded uniform polynomial, on any machine.
func TestSeededExpandDeterministic(t *testing.T) {
	tc, senc := newSymmetricContext(t, 50)
	pt := randomPlaintext(tc, ring.NewSeededSource(51), 16)
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Polys[1].Equal(b.Polys[1]) {
		t.Fatal("seed expansion is not deterministic")
	}
	// A different seed must give a different polynomial (overwhelmingly).
	sc.Seed[0] ^= 1
	c, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if c.Polys[1].Equal(a.Polys[1]) {
		t.Fatal("distinct seeds expanded to the same polynomial")
	}
}

// TestSeededNoiseBudgetMatchesPublicKey: seed compression must cost zero
// noise. A fresh symmetric ciphertext carries a single Gaussian error term,
// so its budget should be at least that of a public-key encryption (which
// adds u·e terms) — never lower by more than measurement jitter.
func TestSeededNoiseBudgetMatchesPublicKey(t *testing.T) {
	tc, senc := newSymmetricContext(t, 60)
	pt := randomPlaintext(tc, ring.NewSeededSource(61), 32)

	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seededBudget, err := tc.dec.NoiseBudget(expanded)
	if err != nil {
		t.Fatal(err)
	}
	ctPub, err := tc.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	pubBudget, err := tc.dec.NoiseBudget(ctPub)
	if err != nil {
		t.Fatal(err)
	}
	if seededBudget <= 0 {
		t.Fatalf("seeded ciphertext budget %.1f not positive", seededBudget)
	}
	if seededBudget < pubBudget-1 {
		t.Fatalf("seeded budget %.1f bits below public-key budget %.1f — seed compression is not noise-free",
			seededBudget, pubBudget)
	}
}

// TestSeededCiphertextWireRoundTrip: marshal → unmarshal → expand → decrypt
// recovers the plaintext, and the byte count matches PackedSize exactly.
func TestSeededCiphertextWireRoundTrip(t *testing.T) {
	tc, senc := newSymmetricContext(t, 70)
	pt := randomPlaintext(tc, ring.NewSeededSource(71), 32)
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalSeededCiphertext(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != sc.PackedSize() {
		t.Fatalf("encoded %d bytes, PackedSize says %d", len(raw), sc.PackedSize())
	}
	got, err := UnmarshalSeededCiphertext(raw, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != sc.Seed || !got.C0.Equal(sc.C0) {
		t.Fatal("wire round trip changed the seeded ciphertext")
	}
	expanded, err := got.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if dec := decryptOK(t, tc, expanded); !dec.Poly.Equal(pt.Poly) {
		t.Fatal("round-tripped seeded ciphertext decrypts wrong")
	}
}

// TestSeededUploadHalvesBytes: the seeded form must be at most half of the
// fixed-width public-key ciphertext encoding at the same parameters.
func TestSeededUploadHalvesBytes(t *testing.T) {
	tc, senc := newSymmetricContext(t, 80)
	pt := randomPlaintext(tc, ring.NewSeededSource(81), 32)
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := MarshalSeededCiphertext(sc)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(legacy)) / float64(len(seeded))
	if ratio < 2 {
		t.Fatalf("seeded upload only %.2f× smaller (legacy %dB, seeded %dB)", ratio, len(legacy), len(seeded))
	}
}

// TestPackedCiphertextRoundTrip: the bit-packed network encoding decodes
// bit-identically, is smaller than the fixed-width ECALL ABI encoding, and
// neither reader accepts the other codec's frames.
func TestPackedCiphertextRoundTrip(t *testing.T) {
	tc := newTestContext(t, 90)
	ct, err := tc.enc.EncryptScalar(123)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := MarshalCiphertextPacked(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != ct.PackedSize() {
		t.Fatalf("packed %d bytes, PackedSize says %d", len(packed), ct.PackedSize())
	}
	fixed, err := MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(fixed) {
		t.Fatalf("packed encoding %dB not smaller than fixed-width %dB", len(packed), len(fixed))
	}
	fromPacked, err := UnmarshalCiphertextPacked(packed, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ct.Polys {
		if !fromPacked.Polys[i].Equal(ct.Polys[i]) {
			t.Fatalf("packed round trip changed poly %d", i)
		}
	}
	if _, err := UnmarshalCiphertextPacked(fixed, tc.params); err == nil {
		t.Fatal("network reader accepted a fixed-width (ECALL ABI) frame")
	}
	if _, err := UnmarshalCiphertext(packed, tc.params); err == nil {
		t.Fatal("ECALL ABI reader accepted a packed frame")
	}
}

// TestPackedSerializeNTTFormFailsLoudly extends the form gate to the v2
// encoders: an NTT-resident ciphertext must refuse packed serialization.
func TestPackedSerializeNTTFormFailsLoudly(t *testing.T) {
	tc := newTestContext(t, 95)
	ct, err := tc.enc.EncryptScalar(7)
	if err != nil {
		t.Fatal(err)
	}
	ct.ToNTT()
	var buf bytes.Buffer
	if err := ct.WritePacked(&buf); err == nil {
		t.Fatal("WritePacked accepted an NTT-form ciphertext")
	}
	if _, err := MarshalCiphertextPacked(ct); err == nil {
		t.Fatal("MarshalCiphertextPacked accepted an NTT-form ciphertext")
	}
}

// TestSeededCiphertextRejectsMismatch checks the hostile-input edges the
// fuzzer also covers: wrong magic, wrong params, truncation.
func TestSeededCiphertextRejectsMismatch(t *testing.T) {
	tc, senc := newSymmetricContext(t, 97)
	pt := randomPlaintext(tc, ring.NewSeededSource(98), 8)
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalSeededCiphertext(sc)
	if err != nil {
		t.Fatal(err)
	}

	bad := bytes.Clone(raw)
	bad[0] ^= 0xFF
	if _, err := UnmarshalSeededCiphertext(bad, tc.params); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := UnmarshalSeededCiphertext(raw[:len(raw)/2], tc.params); err == nil {
		t.Fatal("truncated payload accepted")
	}
	other := tc.params
	other.T = tc.params.T + 2
	if _, err := UnmarshalSeededCiphertext(raw, other); err == nil {
		t.Fatal("mismatched parameters accepted")
	}
}

// TestSymmetricEncryptorValidation pins constructor error handling.
func TestSymmetricEncryptorValidation(t *testing.T) {
	if _, err := NewSymmetricEncryptor(nil, ring.NewSeededSource(1)); err == nil {
		t.Fatal("nil secret key accepted")
	}
	tc := newTestContext(t, 99)
	senc, err := NewSymmetricEncryptor(tc.sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A nil source must fall back to crypto randomness, not crash.
	pt := NewPlaintext(tc.params)
	pt.Poly.Coeffs[0] = 5
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := decryptOK(t, tc, expanded)
	if got.Poly.Coeffs[0] != 5 {
		t.Fatalf("decrypted %d, want 5", got.Poly.Coeffs[0])
	}
}
