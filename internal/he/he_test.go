package he

import (
	"bytes"
	"math"
	mrand "math/rand/v2"
	"testing"
	"testing/quick"

	"hesgx/internal/ring"
)

// testParams returns a small but real parameter set for fast tests.
func testParams(t testing.TB) Parameters {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatalf("GenerateNTTPrime: %v", err)
	}
	p, err := NewParameters(1024, q, 257, DefaultDecompositionBase)
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	return p
}

type testContext struct {
	params Parameters
	sk     *SecretKey
	pk     *PublicKey
	ek     *EvaluationKeys
	enc    *Encryptor
	dec    *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, seed uint64) *testContext {
	t.Helper()
	params := testParams(t)
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
	return &testContext{params: params, sk: sk, pk: pk, ek: ek, enc: enc, dec: dec, eval: eval}
}

// randomPlaintext fills a plaintext's low coefficients with values mod t.
func randomPlaintext(tc *testContext, src ring.Source, nonzero int) *Plaintext {
	pt := NewPlaintext(tc.params)
	for i := 0; i < nonzero; i++ {
		pt.Poly.Coeffs[i] = src.Uint64() % tc.params.T
	}
	return pt
}

func decryptOK(t *testing.T, tc *testContext, ct *Ciphertext) *Plaintext {
	t.Helper()
	pt, err := tc.dec.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	return pt
}

func TestParametersValidation(t *testing.T) {
	q, _ := ring.GenerateNTTPrime(46, 1024)
	tests := []struct {
		name string
		n    int
		q, t uint64
		base int
	}{
		{"degree not power of two", 1000, q, 256, 16},
		{"degree too small", 8, q, 2, 16},
		{"t too small", 1024, q, 1, 16},
		{"t too close to q", 1024, q, q / 2, 16},
		{"bad base", 1024, q, 256, 0},
		{"composite q", 1024, q - 2, 256, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewParameters(tt.n, tt.q, tt.t, tt.base); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDefaultParameters(t *testing.T) {
	for _, n := range DefaultParameterOptions() {
		p, err := DefaultParameters(n, 256)
		if err != nil {
			t.Fatalf("DefaultParameters(%d): %v", n, err)
		}
		if p.N != n || !p.Valid() {
			t.Fatalf("bad params for n=%d: %+v", n, p)
		}
	}
	if _, err := DefaultParameters(1000, 256); err == nil {
		t.Fatal("unsupported degree should fail")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	tc := newTestContext(t, 100)
	src := ring.NewSeededSource(200)
	for trial := 0; trial < 10; trial++ {
		pt := randomPlaintext(tc, src, tc.params.N)
		ct, err := tc.enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		got := decryptOK(t, tc, ct)
		if !got.Poly.Equal(pt.Poly) {
			t.Fatalf("trial %d: decrypt != plaintext", trial)
		}
	}
}

func TestEncryptScalar(t *testing.T) {
	tc := newTestContext(t, 101)
	ct, err := tc.enc.EncryptScalar(123)
	if err != nil {
		t.Fatal(err)
	}
	pt := decryptOK(t, tc, ct)
	if pt.Poly.Coeffs[0] != 123 {
		t.Fatalf("scalar roundtrip: got %d", pt.Poly.Coeffs[0])
	}
}

func TestFreshNoiseBudgetPositive(t *testing.T) {
	tc := newTestContext(t, 102)
	ct, err := tc.enc.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	budget, err := tc.dec.NoiseBudget(ct)
	if err != nil {
		t.Fatal(err)
	}
	if budget < 10 {
		t.Fatalf("fresh noise budget %.1f suspiciously low", budget)
	}
	if budget > tc.params.MaxNoiseBudget() {
		t.Fatalf("budget %.1f exceeds max %.1f", budget, tc.params.MaxNoiseBudget())
	}
}

func TestHomomorphicAdd(t *testing.T) {
	tc := newTestContext(t, 103)
	src := ring.NewSeededSource(300)
	a := randomPlaintext(tc, src, 32)
	b := randomPlaintext(tc, src, 32)
	cta, _ := tc.enc.Encrypt(a)
	ctb, _ := tc.enc.Encrypt(b)
	sum, err := tc.eval.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptOK(t, tc, sum)
	for i := range got.Poly.Coeffs {
		want := (a.Poly.Coeffs[i] + b.Poly.Coeffs[i]) % tc.params.T
		if got.Poly.Coeffs[i] != want {
			t.Fatalf("coeff %d: got %d want %d", i, got.Poly.Coeffs[i], want)
		}
	}
}

func TestHomomorphicSubNeg(t *testing.T) {
	tc := newTestContext(t, 104)
	cta, _ := tc.enc.EncryptScalar(100)
	ctb, _ := tc.enc.EncryptScalar(30)
	diff, err := tc.eval.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, diff).Poly.Coeffs[0]; got != 70 {
		t.Fatalf("100-30 = %d", got)
	}
	neg, err := tc.eval.Neg(ctb)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, neg).Poly.Coeffs[0]; got != tc.params.T-30 {
		t.Fatalf("-30 = %d, want %d", got, tc.params.T-30)
	}
}

func TestAddSubPlain(t *testing.T) {
	tc := newTestContext(t, 105)
	ct, _ := tc.enc.EncryptScalar(150)
	pt := NewPlaintext(tc.params)
	pt.Poly.Coeffs[0] = 77
	sum, err := tc.eval.AddPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, sum).Poly.Coeffs[0]; got != 227 {
		t.Fatalf("150+77 = %d", got)
	}
	diff, err := tc.eval.SubPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, diff).Poly.Coeffs[0]; got != 73 {
		t.Fatalf("150-77 = %d", got)
	}
}

func TestMulPlainScalarValues(t *testing.T) {
	tc := newTestContext(t, 106)
	tests := []struct {
		a, b uint64
	}{
		{3, 4},
		{100, 200},
		{0, 99},
		{1, 1},
		{tc.params.T - 1, 2}, // -1 * 2 = -2 mod t
	}
	for _, tt := range tests {
		ct, _ := tc.enc.EncryptScalar(tt.a)
		pt := NewPlaintext(tc.params)
		pt.Poly.Coeffs[0] = tt.b
		prod, err := tc.eval.MulPlain(ct, pt)
		if err != nil {
			t.Fatal(err)
		}
		want := (tt.a * tt.b) % tc.params.T
		if got := decryptOK(t, tc, prod).Poly.Coeffs[0]; got != want {
			t.Fatalf("%d*%d = %d, want %d", tt.a, tt.b, got, want)
		}
	}
}

func TestMulPlainOperandMatchesMulPlain(t *testing.T) {
	tc := newTestContext(t, 107)
	src := ring.NewSeededSource(400)
	ctIn := randomPlaintext(tc, src, 16)
	ct, _ := tc.enc.Encrypt(ctIn)
	pt := randomPlaintext(tc, src, 16)
	want, err := tc.eval.MulPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tc.eval.PrepareOperand(pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.eval.MulPlainOperand(ct, op)
	if err != nil {
		t.Fatal(err)
	}
	wantPt := decryptOK(t, tc, want)
	gotPt := decryptOK(t, tc, got)
	if !gotPt.Poly.Equal(wantPt.Poly) {
		t.Fatal("operand path decrypts differently")
	}
}

func TestHomomorphicMul(t *testing.T) {
	tc := newTestContext(t, 108)
	tests := []struct{ a, b uint64 }{
		{3, 4}, {25, 25}, {0, 7}, {123, 321},
	}
	for _, tt := range tests {
		cta, _ := tc.enc.EncryptScalar(tt.a)
		ctb, _ := tc.enc.EncryptScalar(tt.b)
		prod, err := tc.eval.Mul(cta, ctb)
		if err != nil {
			t.Fatal(err)
		}
		if prod.Size() != 3 {
			t.Fatalf("Mul size = %d, want 3", prod.Size())
		}
		want := (tt.a * tt.b) % tc.params.T
		if got := decryptOK(t, tc, prod).Poly.Coeffs[0]; got != want {
			t.Fatalf("%d*%d = %d, want %d", tt.a, tt.b, got, want)
		}
	}
}

func TestMulPolynomialPlaintexts(t *testing.T) {
	// Multiplication acts on the whole plaintext ring, so products are
	// negacyclic convolutions mod t.
	tc := newTestContext(t, 109)
	a := NewPlaintext(tc.params)
	a.Poly.Coeffs[0] = 3
	a.Poly.Coeffs[1] = 5 // 3 + 5x
	b := NewPlaintext(tc.params)
	b.Poly.Coeffs[0] = 7
	b.Poly.Coeffs[2] = 2 // 7 + 2x^2
	cta, _ := tc.enc.Encrypt(a)
	ctb, _ := tc.enc.Encrypt(b)
	prod, err := tc.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	got := decryptOK(t, tc, prod)
	// (3+5x)(7+2x^2) = 21 + 35x + 6x^2 + 10x^3
	want := []uint64{21, 35, 6, 10}
	for i, w := range want {
		if got.Poly.Coeffs[i] != w {
			t.Fatalf("coeff %d: got %d want %d", i, got.Poly.Coeffs[i], w)
		}
	}
}

func TestRelinearizePreservesPlaintext(t *testing.T) {
	tc := newTestContext(t, 110)
	cta, _ := tc.enc.EncryptScalar(111)
	ctb, _ := tc.enc.EncryptScalar(222)
	prod, err := tc.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	relin, err := tc.eval.Relinearize(prod, tc.ek)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Size() != 2 {
		t.Fatalf("relinearized size = %d", relin.Size())
	}
	want := (111 * 222) % tc.params.T
	if got := decryptOK(t, tc, relin).Poly.Coeffs[0]; got != want {
		t.Fatalf("relin decrypt = %d, want %d", got, want)
	}
}

func TestSquareMatchesMul(t *testing.T) {
	tc := newTestContext(t, 111)
	ct, _ := tc.enc.EncryptScalar(73)
	viaMul, err := tc.eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	viaSq, err := tc.eval.Square(ct)
	if err != nil {
		t.Fatal(err)
	}
	a := decryptOK(t, tc, viaMul)
	b := decryptOK(t, tc, viaSq)
	if !a.Poly.Equal(b.Poly) {
		t.Fatal("Square != Mul(ct, ct)")
	}
	want := (73 * 73) % tc.params.T
	if a.Poly.Coeffs[0] != want {
		t.Fatalf("73^2 = %d, want %d", a.Poly.Coeffs[0], want)
	}
}

func TestMulRequiresSize2(t *testing.T) {
	tc := newTestContext(t, 112)
	cta, _ := tc.enc.EncryptScalar(1)
	ctb, _ := tc.enc.EncryptScalar(2)
	prod, _ := tc.eval.Mul(cta, ctb)
	if _, err := tc.eval.Mul(prod, cta); err == nil {
		t.Fatal("Mul with size-3 input should fail")
	}
	if _, err := tc.eval.Square(prod); err == nil {
		t.Fatal("Square with size-3 input should fail")
	}
}

func TestAddSize3Ciphertexts(t *testing.T) {
	tc := newTestContext(t, 113)
	cta, _ := tc.enc.EncryptScalar(5)
	ctb, _ := tc.enc.EncryptScalar(6)
	p1, _ := tc.eval.Mul(cta, ctb) // 30, size 3
	p2, _ := tc.eval.Mul(ctb, ctb) // 36, size 3
	sum, err := tc.eval.Add(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, sum).Poly.Coeffs[0]; got != 66 {
		t.Fatalf("30+36 = %d", got)
	}
	// Mixed sizes: size-3 + size-2.
	mixed, err := tc.eval.Add(p1, cta)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, mixed).Poly.Coeffs[0]; got != 35 {
		t.Fatalf("30+5 = %d", got)
	}
}

func TestAddMany(t *testing.T) {
	tc := newTestContext(t, 114)
	var cts []*Ciphertext
	want := uint64(0)
	for i := uint64(1); i <= 10; i++ {
		ct, _ := tc.enc.EncryptScalar(i)
		cts = append(cts, ct)
		want += i
	}
	sum, err := tc.eval.AddMany(cts)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, sum).Poly.Coeffs[0]; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if _, err := tc.eval.AddMany(nil); err == nil {
		t.Fatal("empty AddMany should fail")
	}
}

func TestMulScalar(t *testing.T) {
	tc := newTestContext(t, 115)
	ct, _ := tc.enc.EncryptScalar(21)
	out, err := tc.eval.MulScalar(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, out).Poly.Coeffs[0]; got != 42 {
		t.Fatalf("21*2 = %d", got)
	}
	// Negative scalar representation: t-1 == -1 mod t.
	out2, err := tc.eval.MulScalar(ct, tc.params.T-1)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptOK(t, tc, out2).Poly.Coeffs[0]; got != tc.params.T-21 {
		t.Fatalf("21*(-1) = %d, want %d", got, tc.params.T-21)
	}
}

func TestNoiseGrowthOrdering(t *testing.T) {
	tc := newTestContext(t, 116)
	ct, _ := tc.enc.EncryptScalar(7)
	fresh, _ := tc.dec.NoiseBudget(ct)
	prod, _ := tc.eval.Mul(ct, ct)
	afterMul, _ := tc.dec.NoiseBudget(prod)
	relin, _ := tc.eval.Relinearize(prod, tc.ek)
	afterRelin, _ := tc.dec.NoiseBudget(relin)
	if !(fresh > afterMul) {
		t.Fatalf("budget should shrink after Mul: fresh=%.1f mul=%.1f", fresh, afterMul)
	}
	if afterRelin <= 0 {
		t.Fatalf("budget exhausted after relinearization: %.1f", afterRelin)
	}
	// Relinearization adds only a small amount of noise.
	if afterMul-afterRelin > 10 {
		t.Fatalf("relinearization cost too high: %.1f -> %.1f", afterMul, afterRelin)
	}
}

func TestDeepMultiplicationChain(t *testing.T) {
	// Multiply until the budget runs out, verifying correctness while
	// budget remains positive.
	tc := newTestContext(t, 117)
	ct, _ := tc.enc.EncryptScalar(2)
	want := uint64(2)
	for depth := 1; depth <= 4; depth++ {
		var err error
		ct, err = tc.eval.MulRelin(ct, ct, tc.ek)
		if err != nil {
			t.Fatal(err)
		}
		want = (want * want) % tc.params.T
		budget, _ := tc.dec.NoiseBudget(ct)
		if budget <= 1 {
			t.Logf("budget exhausted at depth %d, stopping", depth)
			break
		}
		if got := decryptOK(t, tc, ct).Poly.Coeffs[0]; got != want {
			t.Fatalf("depth %d: got %d want %d (budget %.1f)", depth, got, want, budget)
		}
	}
}

func TestDecryptWithWrongKeyFails(t *testing.T) {
	tc := newTestContext(t, 118)
	other := newTestContext(t, 999)
	ct, _ := tc.enc.EncryptScalar(42)
	pt, err := other.dec.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Poly.Coeffs[0] == 42 && pt.Poly.Coeffs[1] == 0 {
		t.Fatal("wrong key should not decrypt correctly")
	}
}

func TestEvaluatorRejectsMismatchedParams(t *testing.T) {
	tc := newTestContext(t, 119)
	otherParams, err := DefaultParameters(2048, 65537)
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewCiphertext(otherParams, 2)
	if _, err := tc.eval.Add(tc.mustEncrypt(t, 1), foreign); err == nil {
		t.Fatal("mismatched parameters should fail")
	}
	if _, err := tc.eval.Add(nil, nil); err == nil {
		t.Fatal("nil ciphertext should fail")
	}
}

func (tc *testContext) mustEncrypt(t *testing.T, v uint64) *Ciphertext {
	t.Helper()
	ct, err := tc.enc.EncryptScalar(v)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, 120)
	ct, _ := tc.enc.EncryptScalar(77)
	b, err := MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(b, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	if gotPt := decryptOK(t, tc, got); gotPt.Poly.Coeffs[0] != 77 {
		t.Fatalf("roundtrip decrypt = %d", gotPt.Poly.Coeffs[0])
	}
}

func TestCiphertextDeserializationRejectsCorruption(t *testing.T) {
	tc := newTestContext(t, 121)
	ct, _ := tc.enc.EncryptScalar(1)
	b, _ := MarshalCiphertext(ct)

	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(b)
		bad[0] ^= 0xFF
		if _, err := UnmarshalCiphertext(bad, tc.params); err == nil {
			t.Fatal("corrupted magic accepted")
		}
	})
	t.Run("wrong params", func(t *testing.T) {
		other, _ := DefaultParameters(2048, 65537)
		if _, err := UnmarshalCiphertext(b, other); err == nil {
			t.Fatal("wrong params accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := UnmarshalCiphertext(b[:len(b)/2], tc.params); err == nil {
			t.Fatal("truncated ciphertext accepted")
		}
	})
	t.Run("out of range coefficient", func(t *testing.T) {
		bad := bytes.Clone(b)
		// Overwrite a coefficient with q (first poly data starts after the
		// 24-byte ct header + 4-byte poly length).
		off := 24 + 4
		for i := 0; i < 8; i++ {
			bad[off+i] = 0xFF
		}
		if _, err := UnmarshalCiphertext(bad, tc.params); err == nil {
			t.Fatal("out-of-range coefficient accepted")
		}
	})
}

func TestKeySerializationRoundTrips(t *testing.T) {
	tc := newTestContext(t, 122)

	t.Run("parameters", func(t *testing.T) {
		b, err := MarshalParameters(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalParameters(b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tc.params) {
			t.Fatal("parameters roundtrip mismatch")
		}
	})

	t.Run("secret key", func(t *testing.T) {
		b, err := MarshalSecretKey(tc.sk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalSecretKey(b)
		if err != nil {
			t.Fatal(err)
		}
		// The deserialized key must decrypt ciphertexts made under the
		// original.
		dec, err := NewDecryptor(got)
		if err != nil {
			t.Fatal(err)
		}
		ct, _ := tc.enc.EncryptScalar(31337 % tc.params.T)
		pt, err := dec.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Poly.Coeffs[0] != 31337%tc.params.T {
			t.Fatal("deserialized secret key fails to decrypt")
		}
	})

	t.Run("public key", func(t *testing.T) {
		b, err := MarshalPublicKey(tc.pk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalPublicKey(b)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncryptor(got, ring.NewSeededSource(55))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := enc.EncryptScalar(99)
		if err != nil {
			t.Fatal(err)
		}
		if pt := decryptOK(t, tc, ct); pt.Poly.Coeffs[0] != 99 {
			t.Fatal("deserialized public key produces bad ciphertexts")
		}
	})

	t.Run("evaluation keys", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteEvaluationKeys(&buf, tc.ek); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEvaluationKeys(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cta, _ := tc.enc.EncryptScalar(12)
		ctb, _ := tc.enc.EncryptScalar(13)
		prod, _ := tc.eval.Mul(cta, ctb)
		relin, err := tc.eval.Relinearize(prod, got)
		if err != nil {
			t.Fatal(err)
		}
		if pt := decryptOK(t, tc, relin); pt.Poly.Coeffs[0] != 156 {
			t.Fatalf("relin with deserialized keys: %d", pt.Poly.Coeffs[0])
		}
	})
}

func TestPlaintextValidate(t *testing.T) {
	tc := newTestContext(t, 123)
	pt := NewPlaintext(tc.params)
	pt.Poly.Coeffs[5] = tc.params.T
	if err := pt.Validate(); err == nil {
		t.Fatal("coefficient == t should be rejected")
	}
	if _, err := tc.enc.Encrypt(pt); err == nil {
		t.Fatal("encrypting invalid plaintext should fail")
	}
}

func TestDecompDigits(t *testing.T) {
	tc := newTestContext(t, 124)
	digits := tc.params.DecompDigits()
	// 46-bit modulus with base 2^16 needs 3 digits.
	if digits != 3 {
		t.Fatalf("DecompDigits = %d, want 3", digits)
	}
	if len(tc.ek.K0) != digits || len(tc.ek.K1) != digits {
		t.Fatalf("evaluation keys have %d digits", len(tc.ek.K0))
	}
}

func TestSchoolbookTensorMatchesFastPath(t *testing.T) {
	tc := newTestContext(t, 130)
	slow, err := NewEvaluator(tc.params, WithSchoolbookTensor())
	if err != nil {
		t.Fatal(err)
	}
	src := ring.NewSeededSource(700)
	a := randomPlaintext(tc, src, tc.params.N)
	b := randomPlaintext(tc, src, tc.params.N)
	cta, _ := tc.enc.Encrypt(a)
	ctb, _ := tc.enc.Encrypt(b)

	fast, err := tc.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := slow.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast.Polys {
		if !fast.Polys[i].Equal(ref.Polys[i]) {
			t.Fatalf("component %d differs between tensor paths", i)
		}
	}
	fastSq, err := tc.eval.Square(cta)
	if err != nil {
		t.Fatal(err)
	}
	refSq, err := slow.Square(cta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fastSq.Polys {
		if !fastSq.Polys[i].Equal(refSq.Polys[i]) {
			t.Fatalf("square component %d differs between tensor paths", i)
		}
	}
}

// weightedSumChain is the oracle of WeightedSumInto: acc + Σ wᵢ·ctᵢ as one
// MulScalar and one Add per term, each weight encoded mod t.
func weightedSumChain(t *testing.T, tc *testContext, acc *Ciphertext, cts []*Ciphertext, ws []int64) *Ciphertext {
	t.Helper()
	tm := int64(tc.params.T)
	for i, w := range ws {
		scaled, err := tc.eval.MulScalar(cts[i], uint64((w%tm+tm)%tm))
		if err != nil {
			t.Fatal(err)
		}
		if acc, err = tc.eval.Add(acc, scaled); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestWeightedSumIntoMatchesSeparateOps pins the evaluator's weighted sum to
// the MulScalar+Add chain coefficient for coefficient, in both forms, for
// weights whose mod-t centring matters (±t/2, ±(t/2+1), far past t) and for
// term lists longer than one kernel chunk.
func TestWeightedSumIntoMatchesSeparateOps(t *testing.T) {
	tc := newTestContext(t, 140)
	src := ring.NewSeededSource(800)
	half := int64(tc.params.T / 2)
	rng := mrand.New(mrand.NewPCG(140, 800))
	long := make([]int64, 2*weightedSumChunk+3)
	for i := range long {
		long[i] = rng.Int64N(2*half+1) - half
	}
	for _, form := range []Form{CoeffForm, NTTForm} {
		for _, c := range []struct {
			name string
			ws   []int64
		}{
			{"empty", nil},
			{"ones", []int64{1, -1, 1, 1, -1}},
			{"half-t", []int64{half, -half, half + 1, -(half + 1), half}},
			{"past-t", []int64{int64(tc.params.T) + 3, -5 * int64(tc.params.T), 1 << 40, -(1 << 40) - 1, math.MinInt64, math.MaxInt64}},
			{"all-negative", []int64{-half, -half, -half, -half, -half, -half, -half}},
			{"zeros", []int64{0, 0, 3, 0}},
			{"long", long},
		} {
			cts := make([]*Ciphertext, len(c.ws))
			for i := range cts {
				cts[i], _ = tc.enc.Encrypt(randomPlaintext(tc, src, 8))
				if form == NTTForm {
					cts[i].ToNTT()
				}
			}
			acc, _ := tc.enc.Encrypt(randomPlaintext(tc, src, 8))
			if form == NTTForm {
				acc.ToNTT()
			}
			want := weightedSumChain(t, tc, acc, cts, c.ws)
			got := acc.Copy()
			if err := tc.eval.WeightedSumInto(got, cts, c.ws); err != nil {
				t.Fatalf("%v %s: %v", form, c.name, err)
			}
			for i := range want.Polys {
				if !got.Polys[i].Equal(want.Polys[i]) {
					t.Fatalf("%v %s: component %d differs from the MulScalar+Add chain", form, c.name, i)
				}
			}
		}
	}
}

func TestWeightedSumIntoValidation(t *testing.T) {
	tc := newTestContext(t, 141)
	a, _ := tc.enc.EncryptScalar(1)
	b, _ := tc.enc.EncryptScalar(2)
	prod, _ := tc.eval.Mul(a, b) // size 3
	nttA := a.Copy()
	nttA.ToNTT()
	otherParams, err := NewParameters(tc.params.N, tc.params.Q, 17, DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	other := NewCiphertext(otherParams, 2)
	for _, c := range []struct {
		name string
		acc  *Ciphertext
		cts  []*Ciphertext
		ws   []int64
	}{
		{"size mismatch", prod, []*Ciphertext{a}, []int64{1}},
		{"nil acc", nil, []*Ciphertext{a}, []int64{1}},
		{"nil term", b, []*Ciphertext{a, nil}, []int64{1, 2}},
		{"form mismatch", b, []*Ciphertext{nttA}, []int64{1}},
		{"parameter mismatch", b, []*Ciphertext{other}, []int64{1}},
		{"length mismatch", b, []*Ciphertext{a}, []int64{1, 2}},
	} {
		before := []*Ciphertext{b.Copy(), prod.Copy()}
		if err := tc.eval.WeightedSumInto(c.acc, c.cts, c.ws); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if !b.Polys[0].Equal(before[0].Polys[0]) || !prod.Polys[0].Equal(before[1].Polys[0]) {
			t.Fatalf("%s: a rejected call changed the accumulator", c.name)
		}
	}
}

func TestHomomorphismQuick(t *testing.T) {
	// Property: Dec(Enc(a) + Enc(b)) = a+b and Dec(Enc(a) * pt(b)) = a*b
	// for random scalars.
	tc := newTestContext(t, 142)
	f := func(a, b uint16) bool {
		av := uint64(a) % tc.params.T
		bv := uint64(b) % tc.params.T
		cta, err := tc.enc.EncryptScalar(av)
		if err != nil {
			return false
		}
		ctb, err := tc.enc.EncryptScalar(bv)
		if err != nil {
			return false
		}
		sum, err := tc.eval.Add(cta, ctb)
		if err != nil {
			return false
		}
		ptSum, err := tc.dec.Decrypt(sum)
		if err != nil || ptSum.Poly.Coeffs[0] != (av+bv)%tc.params.T {
			return false
		}
		ptB := NewPlaintext(tc.params)
		ptB.Poly.Coeffs[0] = bv
		prod, err := tc.eval.MulPlain(cta, ptB)
		if err != nil {
			return false
		}
		ptProd, err := tc.dec.Decrypt(prod)
		return err == nil && ptProd.Poly.Coeffs[0] == av*bv%tc.params.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParametersAccessors(t *testing.T) {
	tc := newTestContext(t, 150)
	if tc.params.String() == "" {
		t.Fatal("empty String()")
	}
	if tc.params.Delta() != tc.params.Q/tc.params.T {
		t.Fatal("Delta mismatch")
	}
	if tc.params.MaxNoiseBudget() <= 0 {
		t.Fatal("MaxNoiseBudget must be positive")
	}
	if got := tc.params.PlainLift(); got != tc.params.Q%tc.params.T {
		t.Fatalf("PlainLift = %d", got)
	}
	var zero Parameters
	if zero.Valid() {
		t.Fatal("zero parameters valid")
	}
}

func TestDefaultParametersLowLiftErrors(t *testing.T) {
	if _, err := DefaultParametersLowLift(1000, 256); err == nil {
		t.Fatal("unsupported degree accepted")
	}
	// A congruence modulus larger than the prime range must fail.
	if _, err := DefaultParametersLowLift(1024, 1<<45); err == nil {
		t.Fatal("oversized plaintext modulus accepted")
	}
}

func TestLiftCentered(t *testing.T) {
	tc := newTestContext(t, 151)
	p := tc.params
	if p.LiftCentered(3) != 3 {
		t.Fatal("small values lift unchanged")
	}
	// t-1 represents -1 and must lift to q-1.
	if p.LiftCentered(p.T-1) != p.Q-1 {
		t.Fatalf("LiftCentered(t-1) = %d, want q-1", p.LiftCentered(p.T-1))
	}
}
