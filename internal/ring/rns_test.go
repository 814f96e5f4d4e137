package ring

import (
	"bytes"
	"math/big"
	"math/bits"
	mrand "math/rand/v2"
	"testing"
)

// randCentered draws n centered values of the given bit width.
func randCentered(rng *mrand.Rand, n int, bits int) []int64 {
	out := make([]int64, n)
	half := int64(1) << (bits - 1)
	for i := range out {
		out[i] = rng.Int64N(2*half) - half
	}
	return out
}

func TestGenerateChainProperties(t *testing.T) {
	for _, n := range []int{1024, 4096} {
		for _, bitLen := range []int{50, 57} {
			chain, err := GenerateChain(bitLen, n, 3)
			if err != nil {
				t.Fatalf("GenerateChain(%d, %d, 3): %v", bitLen, n, err)
			}
			if len(chain) != 3 {
				t.Fatalf("got %d primes, want 3", len(chain))
			}
			if err := ValidateChain(n, chain); err != nil {
				t.Fatalf("generated chain fails its own validation: %v", err)
			}
			wantBits := 0
			for i, q := range chain {
				if bits.Len64(q) != bitLen {
					t.Errorf("prime %d = %d has %d bits, want %d", i, q, bits.Len64(q), bitLen)
				}
				if i > 0 && chain[i-1] <= q {
					t.Errorf("chain not strictly decreasing at %d: %d <= %d", i, chain[i-1], q)
				}
				if (q-1)%uint64(2*n) != 0 {
					t.Errorf("prime %d = %d not ≡ 1 mod %d", i, q, 2*n)
				}
				if !IsPrime(q) {
					t.Errorf("chain element %d = %d is composite", i, q)
				}
				wantBits += bitLen
			}
			if got := ChainBits(chain); got != wantBits {
				t.Errorf("ChainBits = %d, want %d", got, wantBits)
			}
			prod := ChainProduct(chain)
			want := big.NewInt(1)
			for _, q := range chain {
				want.Mul(want, new(big.Int).SetUint64(q))
			}
			if prod.Cmp(want) != 0 {
				t.Errorf("ChainProduct mismatch")
			}
		}
	}
}

func TestGenerateChainHonorsAvoid(t *testing.T) {
	n := 2048
	base, err := GenerateChain(57, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := GenerateChain(57, n, 3, base[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range chain {
		if q == base[0] {
			t.Fatalf("avoid list ignored: %d appears in chain", q)
		}
	}
}

func TestValidateChainRejects(t *testing.T) {
	n := 1024
	good, err := GenerateChain(50, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]uint64{
		"empty":            {},
		"composite":        {good[0], 4097},    // 17·241, ≡ 1 mod 2048 but not prime
		"wrong congruence": {good[0], 1000003}, // prime but not ≡ 1 mod 2048
		"repeat":           {good[0], good[0]},
	}
	for name, chain := range cases {
		if err := ValidateChain(n, chain); err == nil {
			t.Errorf("%s chain accepted", name)
		}
	}
	if err := ValidateChain(1000, good); err == nil {
		t.Error("non-power-of-two degree accepted")
	}
}

// TestRNSRingReconstruct pins the CRT round trip: embedding centered values
// limb-wise and reconstructing recovers them exactly.
func TestRNSRingReconstruct(t *testing.T) {
	n := 64
	chain, err := GenerateChain(57, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(8, 1))
	vals := randCentered(rng, n, 56)
	p := rr.NewRNSPoly()
	rr.SetCentered(vals, p)
	got := new(big.Int)
	for i, v := range vals {
		rr.ReconstructBig(p, i, got)
		if got.Int64() != v {
			t.Fatalf("coeff %d: reconstructed %v, want %d", i, got, v)
		}
	}
}

// TestRNSReconstructMatchesU128Garner cross-checks the RNS ring against the
// exact integer reference at tensor-product magnitudes: the limb-wise NTT
// product of two centered operands, CRT-reconstructed, must equal
// NegacyclicConvolveInt's u128 coefficients one for one (|value| up to
// n·2^114 < 2^121, far inside the three-limb basis). The name is from the
// u128 Garner reconstruction that used to be the other side of this check.
func TestRNSReconstructMatchesU128Garner(t *testing.T) {
	n := 64
	chain, err := GenerateChain(MaxModulusBits, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(9, 2))
	a, b := randCentered(rng, n, 57), randCentered(rng, n, 57)
	pa, pb, prod := rr.NewRNSPoly(), rr.NewRNSPoly(), rr.NewRNSPoly()
	rr.SetCentered(a, pa)
	rr.SetCentered(b, pb)
	rr.NTT(pa)
	rr.NTT(pb)
	rr.MulCoeffs(pa, pb, prod)
	rr.INTT(prod)
	got, want := new(big.Int), new(big.Int)
	for i, c := range NegacyclicConvolveInt(a, b) {
		want.SetUint64(c.Mag.Hi)
		want.Lsh(want, 64)
		want.Or(want, new(big.Int).SetUint64(c.Mag.Lo))
		if c.Neg {
			want.Neg(want)
		}
		rr.ReconstructBig(prod, i, got)
		if got.Cmp(want) != 0 {
			t.Fatalf("coeff %d: rns reconstruct %v != exact convolution %v", i, got, want)
		}
	}
}

// TestExtendCenteredFromLast checks the exact basis extension: residues of
// the last limb, read centered, land on the correct residues of every other
// limb.
func TestExtendCenteredFromLast(t *testing.T) {
	n := 64
	q, err := GenerateNTTPrime(58, n)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := GenerateChain(57, n, 3, q)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, append(aux, q))
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(3, 4))
	p := rr.GetRNSPoly()
	defer rr.PutRNSPoly(p)
	last := rr.Limbs[3].Mod
	for i := 0; i < n; i++ {
		p.Limbs[3].Coeffs[i] = rng.Uint64() % q
	}
	rr.ExtendCenteredFromLast(p)
	for j := 0; j < 3; j++ {
		m := rr.Limbs[j].Mod
		for i := 0; i < n; i++ {
			want := m.FromCentered(last.Centered(p.Limbs[3].Coeffs[i]) % int64(m.Q))
			if p.Limbs[j].Coeffs[i] != want {
				t.Fatalf("limb %d coeff %d: got %d, want %d", j, i, p.Limbs[j].Coeffs[i], want)
			}
		}
	}
}

// TestDivRoundByLastModulus pins the scaled rounding against exact
// big-integer arithmetic: out = floor((v + floor(q/2)) / q) for the
// centered value v of every coefficient.
func TestDivRoundByLastModulus(t *testing.T) {
	n := 64
	chain, err := GenerateChain(57, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	outRing, err := NewRNSRing(n, chain[:3])
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(5, 6))
	vals := randCentered(rng, n, 62)
	vals[0], vals[1], vals[2] = 0, 1, -1 // rounding boundary spot checks
	p := rr.NewRNSPoly()
	rr.SetCentered(vals, p)
	out := outRing.NewRNSPoly()
	rr.DivRoundByLastModulus(p, out)

	qLast := new(big.Int).SetUint64(chain[3])
	half := new(big.Int).Rsh(qLast, 1)
	got := new(big.Int)
	want := new(big.Int)
	for i, v := range vals {
		want.SetInt64(v)
		want.Add(want, half)
		// big.Int Div is floor division, matching the rounding identity.
		want.Div(want, qLast)
		outRing.ReconstructBig(out, i, got)
		if got.Cmp(want) != 0 {
			t.Fatalf("coeff %d (v=%d): got %v, want %v", i, v, got, want)
		}
	}
}

func TestRNSKernelsMatchPerLimb(t *testing.T) {
	n := 32
	chain, err := GenerateChain(50, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(7, 8))
	a, b := rr.NewRNSPoly(), rr.NewRNSPoly()
	for j, r := range rr.Limbs {
		for i := 0; i < n; i++ {
			a.Limbs[j].Coeffs[i] = rng.Uint64() % r.Mod.Q
			b.Limbs[j].Coeffs[i] = rng.Uint64() % r.Mod.Q
		}
	}
	got, want := rr.NewRNSPoly(), rr.NewRNSPoly()
	rr.Add(a, b, got)
	for j, r := range rr.Limbs {
		r.Add(a.Limbs[j], b.Limbs[j], want.Limbs[j])
	}
	if !got.Equal(want) {
		t.Fatal("RNS Add disagrees with per-limb Add")
	}
	rr.MulCoeffs(a, b, got)
	for j, r := range rr.Limbs {
		r.MulCoeffs(a.Limbs[j], b.Limbs[j], want.Limbs[j])
	}
	if !got.Equal(want) {
		t.Fatal("RNS MulCoeffs disagrees with per-limb MulCoeffs")
	}
	// NTT/INTT round trip limb-wise.
	c := rr.NewRNSPoly()
	for j := range c.Limbs {
		a.Limbs[j].CopyTo(c.Limbs[j])
	}
	rr.NTT(c)
	rr.INTT(c)
	if !c.Equal(a) {
		t.Fatal("RNS NTT/INTT round trip changed coefficients")
	}
}

func TestRNSPolySerializeRoundTrip(t *testing.T) {
	n := 128
	chain, err := GenerateChain(57, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRNSRing(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(11, 12))
	p := rr.NewRNSPoly()
	for j, r := range rr.Limbs {
		for i := 0; i < n; i++ {
			p.Limbs[j].Coeffs[i] = rng.Uint64() % r.Mod.Q
		}
	}
	var buf bytes.Buffer
	if err := WriteRNSPolyPacked(&buf, p, chain); err != nil {
		t.Fatal(err)
	}
	// Packed limbs must beat the legacy 8-byte layout.
	legacy := len(chain) * (4 + 8*n)
	if buf.Len() >= legacy {
		t.Errorf("packed rns frame %dB not smaller than legacy %dB", buf.Len(), legacy)
	}
	got, gotChain, err := ReadRNSPolyPacked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotChain) != len(chain) {
		t.Fatalf("chain length %d, want %d", len(gotChain), len(chain))
	}
	for i := range chain {
		if gotChain[i] != chain[i] {
			t.Fatalf("chain[%d] = %d, want %d", i, gotChain[i], chain[i])
		}
	}
	if !got.Equal(p) {
		t.Fatal("rns poly round trip changed coefficients")
	}
}

func TestRNSPolySerializeRejects(t *testing.T) {
	var buf bytes.Buffer
	p := RNSPoly{Limbs: []Poly{{Coeffs: []uint64{1, 2}}}}
	if err := WriteRNSPolyPacked(&buf, p, []uint64{17, 19}); err == nil {
		t.Error("limb/chain mismatch accepted")
	}
	if err := WriteRNSPolyPacked(&buf, RNSPoly{}, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, _, err := ReadRNSPolyPacked(bytes.NewReader([]byte{0})); err == nil {
		t.Error("zero limb count accepted")
	}
	if _, _, err := ReadRNSPolyPacked(bytes.NewReader([]byte{maxRNSLimbs + 1})); err == nil {
		t.Error("oversized limb count accepted")
	}
}

// FuzzReadRNSPolyPacked feeds hostile bytes to the limb-poly decoder: it
// must error or return a fully validated poly (residues in range, uniform
// degree), never panic, and accepted frames must round-trip stably.
func FuzzReadRNSPolyPacked(f *testing.F) {
	p := RNSPoly{Limbs: []Poly{
		{Coeffs: []uint64{0, 1, 15, 7}},
		{Coeffs: []uint64{3, 0, 11, 12}},
	}}
	var good bytes.Buffer
	if err := WriteRNSPolyPacked(&good, p, []uint64{17, 13}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0xFF})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 17, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, chain, err := ReadRNSPolyPacked(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got.Limbs) == 0 || len(got.Limbs) > maxRNSLimbs || len(got.Limbs) != len(chain) {
			t.Fatalf("decoder accepted inconsistent limb count %d (chain %d)", len(got.Limbs), len(chain))
		}
		for j, limb := range got.Limbs {
			if len(limb.Coeffs) != len(got.Limbs[0].Coeffs) {
				t.Fatal("decoder accepted ragged limb degrees")
			}
			for i, c := range limb.Coeffs {
				if c >= chain[j] {
					t.Fatalf("limb %d coeff %d = %d ≥ modulus %d", j, i, c, chain[j])
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteRNSPolyPacked(&buf, got, chain); err != nil {
			t.Fatalf("re-encoding accepted poly: %v", err)
		}
		again, chain2, err := ReadRNSPolyPacked(&buf)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if !again.Equal(got) {
			t.Fatal("re-encode round trip changed coefficients")
		}
		for i := range chain {
			if chain2[i] != chain[i] {
				t.Fatal("re-encode round trip changed chain")
			}
		}
	})
}
