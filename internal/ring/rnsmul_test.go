package ring

import (
	mrand "math/rand/v2"
	"testing"
)

// oracleScaleRound reproduces the schoolbook evaluator's reference semantics:
// round(t·(a⊛b [+ c⊛d])/q) mod q coefficient-wise via exact schoolbook
// convolution and sign-magnitude rounding.
func oracleScaleRound(a, b []int64, t, q uint64, out Poly) {
	conv := NegacyclicConvolveInt(a, b)
	for k := range conv {
		out.Coeffs[k] = conv[k].ScaleRoundMod(t, q, q)
	}
}

func oracleScaleRoundSum(a, b, c, d []int64, t, q uint64, out Poly) {
	x := NegacyclicConvolveInt(a, b)
	y := NegacyclicConvolveInt(c, d)
	for k := range x {
		out.Coeffs[k] = x[k].Add(y[k]).ScaleRoundMod(t, q, q)
	}
}

func randResidues(rng *mrand.Rand, r *Ring) Poly {
	p := r.NewPoly()
	for i := range p.Coeffs {
		p.Coeffs[i] = rng.Uint64() % r.Mod.Q
	}
	return p
}

// TestRNSMultiplierMatchesOracle pins bit-exact equivalence of the RNS
// tensor path against the u128 schoolbook reference on uniform random
// ciphertext components — the worst-case operand distribution.
func TestRNSMultiplierMatchesOracle(t *testing.T) {
	for _, n := range []int{64, 256} {
		q, err := GenerateNTTPrime(58, n)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := NewRing(n, q)
		if err != nil {
			t.Fatal(err)
		}
		// t at the largest magnitude params admit (t < q/4) plus a small one.
		for _, tmod := range []uint64{257, q/4 - 1} {
			rm, err := NewRNSMultiplier(rq, tmod)
			if err != nil {
				t.Fatalf("n=%d t=%d: %v", n, tmod, err)
			}
			rng := mrand.New(mrand.NewPCG(uint64(n), tmod))
			for trial := 0; trial < 3; trial++ {
				c0, c1 := randResidues(rng, rq), randResidues(rng, rq)
				d0, d1 := randResidues(rng, rq), randResidues(rng, rq)
				out0, out1, out2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
				rm.MulScaleRound(c0, c1, d0, d1, out0, out1, out2)

				cc0, cc1 := rq.Centered(c0), rq.Centered(c1)
				dc0, dc1 := rq.Centered(d0), rq.Centered(d1)
				want0, want1, want2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
				oracleScaleRound(cc0, dc0, tmod, q, want0)
				oracleScaleRoundSum(cc0, dc1, cc1, dc0, tmod, q, want1)
				oracleScaleRound(cc1, dc1, tmod, q, want2)
				for i, pair := range []struct{ got, want Poly }{{out0, want0}, {out1, want1}, {out2, want2}} {
					if !pair.got.Equal(pair.want) {
						t.Fatalf("n=%d t=%d trial=%d: output %d diverges from oracle", n, tmod, trial, i)
					}
				}
			}
		}
	}
}

// TestRNSSquareMatchesMul pins SquareScaleRound against MulScaleRound of a
// ciphertext with itself (which the oracle equivalence test already pins).
func TestRNSSquareMatchesMul(t *testing.T) {
	n := 128
	q, err := GenerateNTTPrime(58, n)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRing(n, q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRNSMultiplier(rq, 65537)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(21, 22))
	c0, c1 := randResidues(rng, rq), randResidues(rng, rq)
	s0, s1, s2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
	m0, m1, m2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
	rm.SquareScaleRound(c0, c1, s0, s1, s2)
	rm.MulScaleRound(c0, c1, c0, c1, m0, m1, m2)
	if !s0.Equal(m0) || !s1.Equal(m1) || !s2.Equal(m2) {
		t.Fatal("SquareScaleRound diverges from MulScaleRound(ct, ct)")
	}
}

// TestRNSMultiplierLargeDegree exercises the degree the u128 tensor path
// cannot serve: at n=8192 with a maximal 58-bit modulus the RNS path must
// still match the (slow, but exact) schoolbook reference. One trial on one
// output keeps the O(n²) oracle affordable.
func TestRNSMultiplierLargeDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n²) schoolbook oracle at n=8192 is slow; skipped in -short")
	}
	n := 8192
	q, err := GenerateNTTPrime(58, n)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRing(n, q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRNSMultiplier(rq, 1<<25)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(31, 32))
	c0, c1 := randResidues(rng, rq), randResidues(rng, rq)
	d0, d1 := randResidues(rng, rq), randResidues(rng, rq)
	out0, out1, out2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
	rm.MulScaleRound(c0, c1, d0, d1, out0, out1, out2)
	want := rq.NewPoly()
	// The cross term has the largest magnitude — if it matches, the bound
	// analysis holds with margin for the outer components.
	oracleScaleRoundSum(rq.Centered(c0), rq.Centered(d1), rq.Centered(c1), rq.Centered(d0), 1<<25, q, want)
	if !out1.Equal(want) {
		t.Fatal("n=8192 RNS cross term diverges from schoolbook oracle")
	}
}

func TestRNSMultiplierRejectsBadPlainModulus(t *testing.T) {
	rq, err := NewRing(64, MustModulus(7681).Q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRNSMultiplier(rq, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := NewRNSMultiplier(rq, 7681); err == nil {
		t.Error("t=q accepted")
	}
}

func TestRNSMultiplierAvoidsCiphertextModulus(t *testing.T) {
	n := 2048
	q, err := GenerateNTTPrime(57, n) // same bit length as the auxiliary basis
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRing(n, q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRNSMultiplier(rq, 257)
	if err != nil {
		t.Fatal(err)
	}
	chain := rm.Chain()
	if chain[len(chain)-1] != q {
		t.Fatalf("last limb %d, want ciphertext modulus %d", chain[len(chain)-1], q)
	}
	for _, p := range chain[:len(chain)-1] {
		if p == q {
			t.Fatal("auxiliary basis collides with ciphertext modulus")
		}
	}
}

// TestRNSCountersAdvance checks the /metrics counters move when the RNS
// path runs.
func TestRNSCountersAdvance(t *testing.T) {
	limbs0, crt0 := RNSCounts()
	n := 64
	q, err := GenerateNTTPrime(58, n)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRing(n, q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRNSMultiplier(rq, 257)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(41, 42))
	c0, c1 := randResidues(rng, rq), randResidues(rng, rq)
	out0, out1, out2 := rq.NewPoly(), rq.NewPoly(), rq.NewPoly()
	rm.MulScaleRound(c0, c1, c0, c1, out0, out1, out2)
	limbs1, crt1 := RNSCounts()
	if limbs1 <= limbs0 {
		t.Errorf("limb_muls did not advance (%d -> %d)", limbs0, limbs1)
	}
	if crt1 <= crt0 {
		t.Errorf("crt_extends did not advance (%d -> %d)", crt0, crt1)
	}
}
