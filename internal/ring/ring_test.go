package ring

import (
	"math/big"
	"testing"
	"testing/quick"
)

const (
	testN = 64
)

func testRing(t testing.TB) *Ring {
	t.Helper()
	q, err := GenerateNTTPrime(50, testN)
	if err != nil {
		t.Fatalf("GenerateNTTPrime: %v", err)
	}
	r, err := NewRing(testN, q)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return r
}

func TestNewModulusRejectsBad(t *testing.T) {
	if _, err := NewModulus(0); err == nil {
		t.Error("NewModulus(0) should fail")
	}
	if _, err := NewModulus(1); err == nil {
		t.Error("NewModulus(1) should fail")
	}
	if _, err := NewModulus(1 << 60); err == nil {
		t.Error("NewModulus(2^60) should exceed the bit bound")
	}
}

func TestModulusArithmeticAgainstBig(t *testing.T) {
	q := MustModulus((1 << 57) + 29) // any valid odd modulus works here
	if !IsPrime(q.Q) {
		t.Skip("test constant not prime; adjust")
	}
	bigQ := new(big.Int).SetUint64(q.Q)
	f := func(a, b uint64) bool {
		a %= q.Q
		b %= q.Q
		ba, bb := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		wantMul := new(big.Int).Mul(ba, bb)
		wantMul.Mod(wantMul, bigQ)
		if q.Mul(a, b) != wantMul.Uint64() {
			return false
		}
		wantAdd := new(big.Int).Add(ba, bb)
		wantAdd.Mod(wantAdd, bigQ)
		if q.Add(a, b) != wantAdd.Uint64() {
			return false
		}
		wantSub := new(big.Int).Sub(ba, bb)
		wantSub.Mod(wantSub, bigQ)
		if q.Sub(a, b) != wantSub.Uint64() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModulusMulShoupMatchesMul(t *testing.T) {
	q := MustModulus((1 << 50) + 4*testN + 1)
	f := func(a, w uint64) bool {
		a %= q.Q
		w %= q.Q
		return q.MulShoup(a, w, q.Shoup(w)) == q.Mul(a, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestModulusPowInv(t *testing.T) {
	qv, err := GenerateNTTPrime(45, 1024)
	if err != nil {
		t.Fatal(err)
	}
	q := MustModulus(qv)
	for _, a := range []uint64{1, 2, 3, 12345, qv - 1, qv / 2} {
		inv, err := q.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if got := q.Mul(a, inv); got != 1 {
			t.Fatalf("a * a^-1 = %d, want 1", got)
		}
	}
	if _, err := q.Inv(0); err == nil {
		t.Error("Inv(0) should fail")
	}
}

func TestCenteredRoundTrip(t *testing.T) {
	q := MustModulus(97)
	for a := uint64(0); a < 97; a++ {
		c := q.Centered(a)
		if c > 48 || c < -48 {
			t.Fatalf("Centered(%d) = %d out of range", a, c)
		}
		if q.FromCentered(c) != a {
			t.Fatalf("FromCentered(Centered(%d)) = %d", a, q.FromCentered(c))
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 4: false, 5: true, 9: false, 97: true,
		561: false /* Carmichael */, 7919: true, 1 << 20: false,
		(1 << 32) + 15: true, 4294967297: false, /* Fermat F5 */
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestGenerateNTTPrime(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		for _, b := range []int{30, 40, 50, 58} {
			q, err := GenerateNTTPrime(b, n)
			if err != nil {
				t.Fatalf("GenerateNTTPrime(%d, %d): %v", b, n, err)
			}
			if !IsPrime(q) {
				t.Fatalf("returned composite %d", q)
			}
			if q%uint64(2*n) != 1 {
				t.Fatalf("q=%d not ≡ 1 mod %d", q, 2*n)
			}
			if q>>(uint(b)-1) != 1 {
				t.Fatalf("q=%d not %d bits", q, b)
			}
		}
	}
	if _, err := GenerateNTTPrime(5, 1024); err == nil {
		t.Error("tiny bit length should fail")
	}
	if _, err := GenerateNTTPrime(40, 1000); err == nil {
		t.Error("non-power-of-two degree should fail")
	}
}

func TestGenerateNTTPrimesDistinct(t *testing.T) {
	ps, err := GenerateNTTPrimes(50, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("duplicate prime %d", p)
		}
		seen[p] = true
		if p%2048 != 1 || !IsPrime(p) {
			t.Fatalf("bad prime %d", p)
		}
	}
}

func TestPrimitiveRoot(t *testing.T) {
	r := testRing(t)
	psi, err := PrimitiveRoot2N(r.Mod, r.N)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Mod.Pow(psi, uint64(2*r.N)); got != 1 {
		t.Fatalf("psi^2n = %d, want 1", got)
	}
	if got := r.Mod.Pow(psi, uint64(r.N)); got != r.Mod.Q-1 {
		t.Fatalf("psi^n = %d, want q-1", got)
	}
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(1))
	for trial := 0; trial < 20; trial++ {
		p := r.NewPoly()
		s.Uniform(p)
		orig := p.Copy()
		r.NTT(p)
		if p.Equal(orig) && !orig.IsZero() {
			t.Fatal("NTT left poly unchanged")
		}
		r.INTT(p)
		if !p.Equal(orig) {
			t.Fatalf("trial %d: NTT/INTT roundtrip mismatch", trial)
		}
	}
}

// naiveNegacyclicMul is the O(n^2) big.Int oracle for ring multiplication.
func naiveNegacyclicMul(r *Ring, a, b Poly) Poly {
	n := r.N
	bigQ := new(big.Int).SetUint64(r.Mod.Q)
	acc := make([]*big.Int, n)
	for i := range acc {
		acc[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := new(big.Int).Mul(
				new(big.Int).SetUint64(a.Coeffs[i]),
				new(big.Int).SetUint64(b.Coeffs[j]),
			)
			k := i + j
			if k >= n {
				acc[k-n].Sub(acc[k-n], prod)
			} else {
				acc[k].Add(acc[k], prod)
			}
		}
	}
	out := r.NewPoly()
	for i := range acc {
		acc[i].Mod(acc[i], bigQ)
		if acc[i].Sign() < 0 {
			acc[i].Add(acc[i], bigQ)
		}
		out.Coeffs[i] = acc[i].Uint64()
	}
	return out
}

func TestMulNTTAgainstNaive(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(2))
	for trial := 0; trial < 10; trial++ {
		a, b := r.NewPoly(), r.NewPoly()
		s.Uniform(a)
		s.Uniform(b)
		got := r.NewPoly()
		r.MulNTT(a, b, got)
		want := naiveNegacyclicMul(r, a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: MulNTT != naive", trial)
		}
	}
}

func TestMulNTTLazyMatchesMulNTT(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(3))
	a, b := r.NewPoly(), r.NewPoly()
	s.Uniform(a)
	s.Uniform(b)
	want := r.NewPoly()
	r.MulNTT(a, b, want)
	bNTT := b.Copy()
	r.NTT(bNTT)
	got := r.NewPoly()
	r.MulNTTLazy(a, bNTT, got)
	if !got.Equal(want) {
		t.Fatal("MulNTTLazy != MulNTT")
	}
}

func TestRingAxioms(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(4))
	randPoly := func() Poly {
		p := r.NewPoly()
		s.Uniform(p)
		return p
	}
	a, b, c := randPoly(), randPoly(), randPoly()

	t.Run("addition commutes", func(t *testing.T) {
		x, y := r.NewPoly(), r.NewPoly()
		r.Add(a, b, x)
		r.Add(b, a, y)
		if !x.Equal(y) {
			t.Fatal("a+b != b+a")
		}
	})
	t.Run("multiplication commutes", func(t *testing.T) {
		x, y := r.NewPoly(), r.NewPoly()
		r.MulNTT(a, b, x)
		r.MulNTT(b, a, y)
		if !x.Equal(y) {
			t.Fatal("a*b != b*a")
		}
	})
	t.Run("distributive", func(t *testing.T) {
		sum, left := r.NewPoly(), r.NewPoly()
		r.Add(b, c, sum)
		r.MulNTT(a, sum, left)
		ab, ac, right := r.NewPoly(), r.NewPoly(), r.NewPoly()
		r.MulNTT(a, b, ab)
		r.MulNTT(a, c, ac)
		r.Add(ab, ac, right)
		if !left.Equal(right) {
			t.Fatal("a(b+c) != ab+ac")
		}
	})
	t.Run("additive inverse", func(t *testing.T) {
		neg, sum := r.NewPoly(), r.NewPoly()
		r.Neg(a, neg)
		r.Add(a, neg, sum)
		if !sum.IsZero() {
			t.Fatal("a + (-a) != 0")
		}
	})
	t.Run("sub is add neg", func(t *testing.T) {
		x, y, neg := r.NewPoly(), r.NewPoly(), r.NewPoly()
		r.Sub(a, b, x)
		r.Neg(b, neg)
		r.Add(a, neg, y)
		if !x.Equal(y) {
			t.Fatal("a-b != a+(-b)")
		}
	})
	t.Run("scalar mul distributes", func(t *testing.T) {
		x, y, z, sum := r.NewPoly(), r.NewPoly(), r.NewPoly(), r.NewPoly()
		r.Add(a, b, sum)
		r.MulScalar(sum, 12345, x)
		r.MulScalar(a, 12345, y)
		r.MulScalar(b, 12345, z)
		r.Add(y, z, y)
		if !x.Equal(y) {
			t.Fatal("c(a+b) != ca+cb")
		}
	})
}

func TestNegacyclicConvolveIntMatchesBig(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(6))
	a, b := r.NewPoly(), r.NewPoly()
	s.Uniform(a)
	s.Uniform(b)
	ca, cb := r.Centered(a), r.Centered(b)
	got := NegacyclicConvolveInt(ca, cb)
	n := r.N
	for k := 0; k < n; k++ {
		want := new(big.Int)
		for i := 0; i <= k; i++ {
			want.Add(want, new(big.Int).Mul(big.NewInt(ca[i]), big.NewInt(cb[k-i])))
		}
		for i := k + 1; i < n; i++ {
			want.Sub(want, new(big.Int).Mul(big.NewInt(ca[i]), big.NewInt(cb[n+k-i])))
		}
		gotBig := new(big.Int).SetUint64(got[k].Mag.Hi)
		gotBig.Lsh(gotBig, 64)
		gotBig.Add(gotBig, new(big.Int).SetUint64(got[k].Mag.Lo))
		if got[k].Neg {
			gotBig.Neg(gotBig)
		}
		if gotBig.Cmp(want) != 0 {
			t.Fatalf("coefficient %d: got %v want %v", k, gotBig, want)
		}
	}
}

func TestSamplerUniformInRange(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(7))
	p := r.NewPoly()
	s.Uniform(p)
	if err := r.ValidatePoly(p); err != nil {
		t.Fatal(err)
	}
	if p.IsZero() {
		t.Fatal("uniform sample of 64 coefficients should not be zero")
	}
}

func TestSamplerTernary(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(8))
	p := r.NewPoly()
	s.Ternary(p)
	counts := map[int64]int{}
	for _, c := range p.Coeffs {
		v := r.Mod.Centered(c)
		if v < -1 || v > 1 {
			t.Fatalf("ternary value %d", v)
		}
		counts[v]++
	}
	if len(counts) < 2 {
		t.Fatalf("suspiciously degenerate ternary sample: %v", counts)
	}
}

func TestSamplerGaussianBounded(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(9))
	sigma := float64(DefaultSigma)
	bound := int64(sigma*gaussianTailCut) + 1
	sum := 0.0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		p := r.NewPoly()
		s.Gaussian(p)
		for _, c := range p.Coeffs {
			v := r.Mod.Centered(c)
			if v > bound || v < -bound {
				t.Fatalf("gaussian sample %d beyond tail cut", v)
			}
			sum += float64(v) * float64(v)
		}
	}
	variance := sum / float64(trials*r.N)
	if variance < 5 || variance > 16 {
		t.Fatalf("empirical variance %.2f implausible for sigma=%.2f", variance, DefaultSigma)
	}
}

func TestSeededSourceDeterministic(t *testing.T) {
	a, b := NewSeededSource(42), NewSeededSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSeededSource(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestPolySerializationRoundTrip(t *testing.T) {
	r := testRing(t)
	s := NewSampler(r, NewSeededSource(10))
	p := r.NewPoly()
	s.Uniform(p)
	var buf []byte
	w := &sliceWriter{buf: &buf}
	if err := WritePoly(w, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoly(&sliceReader{buf: buf})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("serialization roundtrip mismatch")
	}
}

func TestReadPolyRejectsHostileLength(t *testing.T) {
	// length prefix of 2^31
	buf := []byte{0, 0, 0, 0x80}
	if _, err := ReadPoly(&sliceReader{buf: buf}); err == nil {
		t.Fatal("hostile length should be rejected")
	}
}

func TestValidatePolyRejectsOutOfRange(t *testing.T) {
	r := testRing(t)
	p := r.NewPoly()
	p.Coeffs[3] = r.Mod.Q
	if err := r.ValidatePoly(p); err == nil {
		t.Fatal("out-of-range coefficient should be rejected")
	}
	short := Poly{Coeffs: make([]uint64, r.N-1)}
	if err := r.ValidatePoly(short); err == nil {
		t.Fatal("wrong degree should be rejected")
	}
}

type sliceWriter struct{ buf *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

type sliceReader struct {
	buf []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, errEOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

var errEOF = &eofError{}

type eofError struct{}

func (*eofError) Error() string { return "EOF" }

func BenchmarkNTTForward(b *testing.B) {
	q, _ := GenerateNTTPrime(50, 1024)
	r, err := NewRing(1024, q)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSampler(r, NewSeededSource(1))
	p := r.NewPoly()
	s.Uniform(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(p)
	}
}

// benchNTT times one transform of a uniform polynomial at degree n over a
// 56-bit NTT prime, the limb width of the ledger's parameter tiers.
func benchNTT(b *testing.B, n int, inverse bool) {
	q, err := GenerateNTTPrime(56, n)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(n, q)
	if err != nil {
		b.Fatal(err)
	}
	p := r.NewPoly()
	NewSampler(r, NewSeededSource(1)).Uniform(p)
	b.ResetTimer()
	for range b.N {
		if inverse {
			r.INTT(p)
		} else {
			r.NTT(p)
		}
	}
}

func BenchmarkNTTForward2048(b *testing.B) { benchNTT(b, 2048, false) }
func BenchmarkNTTInverse2048(b *testing.B) { benchNTT(b, 2048, true) }
func BenchmarkNTTForward8192(b *testing.B) { benchNTT(b, 8192, false) }
func BenchmarkNTTInverse8192(b *testing.B) { benchNTT(b, 8192, true) }

func BenchmarkMulNTT1024(b *testing.B) {
	q, _ := GenerateNTTPrime(50, 1024)
	r, err := NewRing(1024, q)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSampler(r, NewSeededSource(1))
	x, y, out := r.NewPoly(), r.NewPoly(), r.NewPoly()
	s.Uniform(x)
	s.Uniform(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MulNTT(x, y, out)
	}
}
