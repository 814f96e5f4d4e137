package he

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hesgx/internal/ring"
)

// Fuzz targets for the deserialization attack surface: hostile bytes from
// the network must produce errors, never panics or out-of-range structures.

func fuzzParams(t *testing.F) Parameters {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParameters(1024, q, 257, DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func FuzzUnmarshalCiphertext(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(1))
	if err != nil {
		f.Fatal(err)
	}
	_, pk := kg.GenKeyPair()
	enc, err := NewEncryptor(pk, ring.NewSeededSource(2))
	if err != nil {
		f.Fatal(err)
	}
	ct, err := enc.EncryptScalar(42)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalCiphertext(ct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:17])
	mutated := bytes.Clone(valid)
	mutated[30] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCiphertext(data, params)
		if err != nil {
			return
		}
		// Anything accepted must be structurally valid.
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted ciphertext fails validation: %v", verr)
		}
	})
}

func FuzzReadSecretKey(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(3))
	if err != nil {
		f.Fatal(err)
	}
	sk := kg.GenSecretKey()
	valid, err := MarshalSecretKey(sk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	f.Add([]byte("FVSKgarbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalSecretKey(data)
		if err != nil {
			return
		}
		if err := got.Params.Ring().ValidatePoly(got.S); err != nil {
			t.Fatalf("accepted secret key fails validation: %v", err)
		}
	})
}

func FuzzReadPublicKey(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(4))
	if err != nil {
		f.Fatal(err)
	}
	_, pk := kg.GenKeyPair()
	valid, err := MarshalPublicKey(pk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalPublicKey(data)
		if err != nil {
			return
		}
		r := got.Params.Ring()
		if err := r.ValidatePoly(got.P0); err != nil {
			t.Fatalf("accepted public key p0 invalid: %v", err)
		}
		if err := r.ValidatePoly(got.P1); err != nil {
			t.Fatalf("accepted public key p1 invalid: %v", err)
		}
	})
}

// FuzzToNTTToCoeffRoundTrip checks the domain conversions are exact mutual
// inverses for arbitrary in-range polynomials, and that form-gated
// operations (serialize, decrypt) reject evaluation form however it was
// reached.
func FuzzToNTTToCoeffRoundTrip(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(5))
	if err != nil {
		f.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	enc, err := NewEncryptor(pk, ring.NewSeededSource(6))
	if err != nil {
		f.Fatal(err)
	}
	dec, err := NewDecryptor(sk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(42), uint64(0xDEADBEEF))
	f.Add(params.T-1, params.Q-1)

	f.Fuzz(func(t *testing.T, v, seed uint64) {
		ct, err := enc.EncryptScalar(v % params.T)
		if err != nil {
			t.Fatal(err)
		}
		// Scribble deterministic in-range noise over the polys so the
		// round-trip is exercised on arbitrary ring elements, not just
		// well-formed encryptions.
		r := ct.Params.Ring()
		state := seed
		for _, p := range ct.Polys {
			for i := range p.Coeffs {
				state = state*6364136223846793005 + 1442695040888963407
				p.Coeffs[i] = state % r.Mod.Q
			}
		}
		orig := ct.Copy()
		ct.ToNTT()
		if _, err := MarshalCiphertext(ct); err == nil {
			t.Fatal("serialized an NTT-form ciphertext")
		}
		if _, err := dec.Decrypt(ct); err == nil {
			t.Fatal("decrypted an NTT-form ciphertext")
		}
		ct.ToCoeff()
		if ct.Form != CoeffForm {
			t.Fatalf("form after round trip: %v", ct.Form)
		}
		for i := range ct.Polys {
			if !ct.Polys[i].Equal(orig.Polys[i]) {
				t.Fatalf("poly %d does not round-trip", i)
			}
		}
	})
}

// FuzzReadSeededCiphertext attacks the seeded-upload decoder: hostile bytes
// must error, never panic or build an invalid structure. Any accepted seed
// is harmless by construction (every seed expands to some uniform poly), so
// the invariants to defend are the c0 coefficient range and the length
// bounds.
func FuzzReadSeededCiphertext(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(7))
	if err != nil {
		f.Fatal(err)
	}
	sk := kg.GenSecretKey()
	senc, err := NewSymmetricEncryptor(sk, ring.NewSeededSource(8))
	if err != nil {
		f.Fatal(err)
	}
	pt := NewPlaintext(params)
	pt.Poly.Coeffs[0] = 99
	sc, err := senc.EncryptSeeded(pt)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalSeededCiphertext(sc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:24])
	f.Add(valid[:len(valid)-3])
	mutated := bytes.Clone(valid)
	mutated[4] ^= 0xFF // flags byte
	f.Add(mutated)
	hostileLen := bytes.Clone(valid)
	copy(hostileLen[25+SeedSize:], []byte{0xFF, 0xFF, 0xFF, 0xFF}) // packed count
	f.Add(hostileLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalSeededCiphertext(data, params)
		if err != nil {
			return
		}
		if verr := params.Ring().ValidatePoly(got.C0); verr != nil {
			t.Fatalf("accepted seeded ciphertext with invalid c0: %v", verr)
		}
		ct, err := got.Expand()
		if err != nil {
			t.Fatalf("accepted seeded ciphertext fails to expand: %v", err)
		}
		if verr := ct.Validate(); verr != nil {
			t.Fatalf("expanded ciphertext fails validation: %v", verr)
		}
	})
}

// FuzzUnmarshalCiphertextPacked drives the network ciphertext reader with a
// packed frame, a fixed-width (ECALL ABI) frame, and hostile mutations: all
// must decode-or-error without panicking, and nothing carrying the
// fixed-width magic may be accepted.
func FuzzUnmarshalCiphertextPacked(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(9))
	if err != nil {
		f.Fatal(err)
	}
	_, pk := kg.GenKeyPair()
	enc, err := NewEncryptor(pk, ring.NewSeededSource(10))
	if err != nil {
		f.Fatal(err)
	}
	ct, err := enc.EncryptScalar(7)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := MarshalCiphertext(ct)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := MarshalCiphertextPacked(ct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(v2)
	f.Add(v2[:30])
	crossed := bytes.Clone(v2)
	copy(crossed[:4], v1[:4]) // v1 magic on a v2 body
	f.Add(crossed)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCiphertextPacked(data, params)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, v1[:4]) {
			t.Fatal("network reader accepted the fixed-width magic")
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted ciphertext fails validation: %v", verr)
		}
	})
}

// FuzzUnmarshalGaloisKeys drives the Galois-key wire decoder — the payload
// of the v2 key-upload message — with valid encodings, truncations, and
// header mutations. The decoder must bound the claimed key count against
// the payload length before allocating (the PR 4 OOM discipline) and must
// never panic or accept structurally invalid key material.
func FuzzUnmarshalGaloisKeys(f *testing.F) {
	params := fuzzParams(f)
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(11))
	if err != nil {
		f.Fatal(err)
	}
	sk := kg.GenSecretKey()
	// A wide base keeps the corpus small (3 digits instead of 23) without
	// changing the wire layout the decoder has to defend.
	gk, err := kg.GenGaloisKeys(sk, []int{1, -1}, 16)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := MarshalGaloisKeys(gk)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:36])
	f.Add(valid[:len(valid)-5])
	hostileCount := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hostileCount[36:], 0xFFFFFFFF)
	f.Add(hostileCount)
	hostileBase := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hostileBase[32:], 0)
	f.Add(hostileBase)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalGaloisKeys(data)
		if err != nil {
			return
		}
		if !got.Params.Valid() {
			t.Fatal("accepted galois keys with invalid parameters")
		}
		if got.BaseBits < 1 || got.BaseBits > 60 {
			t.Fatalf("accepted out-of-range base bits %d", got.BaseBits)
		}
		els := got.Elements()
		if len(els) == 0 {
			t.Fatal("accepted empty galois key set")
		}
		for _, g := range els {
			if g&1 == 0 || g == 1 || g >= uint64(2*got.Params.N) {
				t.Fatalf("accepted invalid galois element %d", g)
			}
		}
	})
}
