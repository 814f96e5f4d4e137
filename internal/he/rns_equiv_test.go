package he

import (
	"testing"

	"hesgx/internal/ring"
)

// The RNS↔oracle equivalence suite: the RNS modulus-chain multiply and the
// schoolbook evaluator (WithSchoolbookTensor: exact O(n²) integer
// convolution, then scale-and-round) must produce bit-identical ciphertexts
// for every tensor operation at every supported degree. CI runs this under
// -race.

// equivContext builds two evaluators over the same keys: the RNS one and the
// schoolbook oracle.
func equivContext(t *testing.T, n int, tmod uint64, seed uint64) (*testContext, *Evaluator) {
	t.Helper()
	params, err := DefaultParameters(n, tmod)
	if err != nil {
		t.Fatalf("DefaultParameters(%d, %d): %v", n, tmod, err)
	}
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	ek := kg.GenEvaluationKeys(sk)
	enc, err := NewEncryptor(pk, ring.NewSeededSource(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecryptor(sk)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	oracleEval, err := NewEvaluator(params, WithSchoolbookTensor())
	if err != nil {
		t.Fatal(err)
	}
	tc := &testContext{params: params, sk: sk, pk: pk, ek: ek, enc: enc, dec: dec, eval: eval}
	return tc, oracleEval
}

func ciphertextsEqual(a, b *Ciphertext) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

// TestRNSMulMatchesOracleEvaluator pins Mul, Square, and MulRelin to the
// oracle bit-for-bit across degrees, and checks the product still decrypts
// to the plaintext product.
func TestRNSMulMatchesOracleEvaluator(t *testing.T) {
	degrees := []int{1024, 2048}
	if !testing.Short() {
		degrees = append(degrees, 4096)
	}
	for _, n := range degrees {
		tc, oracle := equivContext(t, n, 257, uint64(n))
		src := ring.NewSeededSource(uint64(n) + 7)
		a := randomPlaintext(tc, src, 16)
		b := randomPlaintext(tc, src, 16)
		cta, err := tc.enc.Encrypt(a)
		if err != nil {
			t.Fatal(err)
		}
		ctb, err := tc.enc.Encrypt(b)
		if err != nil {
			t.Fatal(err)
		}

		rnsProd, err := tc.eval.Mul(cta, ctb)
		if err != nil {
			t.Fatalf("n=%d rns Mul: %v", n, err)
		}
		oracleProd, err := oracle.Mul(cta, ctb)
		if err != nil {
			t.Fatalf("n=%d oracle Mul: %v", n, err)
		}
		if !ciphertextsEqual(rnsProd, oracleProd) {
			t.Fatalf("n=%d: RNS Mul diverges from oracle", n)
		}

		rnsSq, err := tc.eval.Square(cta)
		if err != nil {
			t.Fatal(err)
		}
		oracleSq, err := oracle.Square(cta)
		if err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(rnsSq, oracleSq) {
			t.Fatalf("n=%d: RNS Square diverges from oracle", n)
		}

		rnsMR, err := tc.eval.MulRelin(cta, ctb, tc.ek)
		if err != nil {
			t.Fatal(err)
		}
		oracleMR, err := oracle.MulRelin(cta, ctb, tc.ek)
		if err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(rnsMR, oracleMR) {
			t.Fatalf("n=%d: RNS MulRelin diverges from oracle", n)
		}

		// End-to-end: the RNS product decrypts to the plaintext product.
		got, err := tc.dec.Decrypt(rnsMR)
		if err != nil {
			t.Fatal(err)
		}
		want := NewPlaintext(tc.params)
		tmod := ring.MustModulus(tc.params.T)
		ac := make([]int64, n)
		bc := make([]int64, n)
		for i := 0; i < n; i++ {
			ac[i] = centeredModT(a.Poly.Coeffs[i], tc.params.T)
			bc[i] = centeredModT(b.Poly.Coeffs[i], tc.params.T)
		}
		conv := ring.NegacyclicConvolveInt(ac, bc)
		for i := range want.Poly.Coeffs {
			m := conv[i].Mag.Mod64(tc.params.T)
			if conv[i].Neg {
				m = tmod.Neg(m)
			}
			want.Poly.Coeffs[i] = m
		}
		for i := range want.Poly.Coeffs {
			if got.Poly.Coeffs[i] != want.Poly.Coeffs[i] {
				t.Fatalf("n=%d: decrypted product wrong at %d: got %d want %d",
					n, i, got.Poly.Coeffs[i], want.Poly.Coeffs[i])
			}
		}
	}
}

// centeredModT maps a residue mod t to its centered representative.
func centeredModT(c, t uint64) int64 {
	if c > t/2 {
		return int64(c) - int64(t)
	}
	return int64(c)
}

// TestRNSDeepChainMatchesOracle walks a multiplication chain (the pattern
// of stacked square activations in the paper CNN) on both backends.
func TestRNSDeepChainMatchesOracle(t *testing.T) {
	tc, oracle := equivContext(t, 2048, 257, 99)
	src := ring.NewSeededSource(17)
	pt := randomPlaintext(tc, src, 8)
	ct, err := tc.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	rns, orc := ct, ct.Copy()
	for depth := 0; depth < 2; depth++ {
		if rns, err = tc.eval.Square(rns); err != nil {
			t.Fatal(err)
		}
		if rns, err = tc.eval.Relinearize(rns, tc.ek); err != nil {
			t.Fatal(err)
		}
		if orc, err = oracle.Square(orc); err != nil {
			t.Fatal(err)
		}
		if orc, err = oracle.Relinearize(orc, tc.ek); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(rns, orc) {
			t.Fatalf("depth %d: chains diverge", depth)
		}
	}
}

// TestLargeDegreeMulDecrypts runs a real encrypt→Mul→Relin→decrypt cycle at
// n=8192 and checks the plaintext product, using the schoolbook evaluator as
// the independent exact oracle.
func TestLargeDegreeMulDecrypts(t *testing.T) {
	if testing.Short() {
		t.Skip("n=8192 key generation and schoolbook oracle are slow; skipped in -short")
	}
	params, err := DefaultParameters(8192, 257)
	if err != nil {
		t.Fatal(err)
	}
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(8192))
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	ek := kg.GenEvaluationKeys(sk)
	enc, err := NewEncryptor(pk, ring.NewSeededSource(8193))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecryptor(sk)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	schoolbook, err := NewEvaluator(params, WithSchoolbookTensor())
	if err != nil {
		t.Fatal(err)
	}

	a := NewPlaintext(params)
	b := NewPlaintext(params)
	a.Poly.Coeffs[0], a.Poly.Coeffs[1], a.Poly.Coeffs[5] = 3, 7, 250
	b.Poly.Coeffs[0], b.Poly.Coeffs[2] = 11, 5
	cta, err := enc.Encrypt(a)
	if err != nil {
		t.Fatal(err)
	}
	ctb, err := enc.Encrypt(b)
	if err != nil {
		t.Fatal(err)
	}

	rnsProd, err := eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	sbProd, err := schoolbook.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if !ciphertextsEqual(rnsProd, sbProd) {
		t.Fatal("n=8192: RNS Mul diverges from schoolbook oracle")
	}

	rel, err := eval.Relinearize(rnsProd, ek)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decrypt(rel)
	if err != nil {
		t.Fatal(err)
	}
	// (3 + 7x + 250x^5)(11 + 5x^2) mod 257, with 250 ≡ -7:
	// 33 + 77x + 15x^2 + 35x^3 - 77x^5 - 35x^7.
	want := map[int]uint64{0: 33, 1: 77, 2: 15, 3: 35, 5: 257 - 77, 7: 257 - 35}
	for i, c := range got.Poly.Coeffs {
		if c != want[i] {
			t.Fatalf("coeff %d: got %d, want %d", i, c, want[i])
		}
	}
}
