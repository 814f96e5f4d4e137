package he

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"hesgx/internal/ring"
)

// roundTestParams returns the inference tiers the wire rounding serves: a
// batching-capable 25-bit plaintext prime at n = 2048 and n = 8192, over the
// low-lift moduli the engine plans with.
func roundTestParams(t *testing.T, n int) Parameters {
	t.Helper()
	pt, err := ring.GenerateNTTPrime(25, n)
	if err != nil {
		t.Fatal(err)
	}
	params, err := DefaultParametersLowLift(n, pt)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// roundTrip sends ct through the packed codec at drops (d0, d1).
func roundTrip(t *testing.T, ct *Ciphertext, d0, d1 int) *Ciphertext {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.WritePacked(&buf, d0, d1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != ct.PackedSize(d0, d1) {
		t.Fatalf("rounded frame %d B, PackedSize says %d", buf.Len(), ct.PackedSize(d0, d1))
	}
	got, err := ReadCiphertextPacked(&buf, ct.Params, d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRoundBoundAtItsEdge crafts the worst case Round charges for: a
// full-weight ternary s (every coefficient ±1), a ciphertext whose noise at
// coefficient 0 is exactly the bound W, and low bits of c0 and c1 chosen so
// that every rounding error adds to that coefficient's noise with the same
// sign. At the drops MaxRound grants W it must still decrypt exactly; two
// more bits of c1 must break it, so the grant is not loose by more than the
// one bit it keeps.
func TestRoundBoundAtItsEdge(t *testing.T) {
	for _, n := range []int{2048, 8192} {
		params := roundTestParams(t, n)
		r := params.Ring()
		mod := r.Mod
		q := params.Q
		rng := rand.New(rand.NewPCG(uint64(n), 3))

		// A representative logit bound: one FC output over 64 fresh inputs.
		bound := params.FreshNoiseBound().WeightedSum(64, 64).AddPlain()
		d0, d1 := bound.MaxRound()
		if d0 == 0 || d1 == 0 {
			t.Fatalf("n=%d: MaxRound granted (%d, %d) on %.1f bits", n, d0, d1, bound.BudgetBits())
		}
		if got := bound.Round(d0, d1).BudgetBits(); got < 1 {
			t.Fatalf("n=%d: (%d, %d) leaves %.2f bits, want ≥ 1", n, d0, d1, got)
		}
		for _, more := range [][2]int{{d0 + 1, d1}, {d0, d1 + 1}, {d0 + 2, d1 - 1}, {d0 - 1, d1 + 2}} {
			if bound.Round(more[0], more[1]).BudgetBits() >= 1 {
				t.Fatalf("n=%d: (%d, %d) also keeps a bit; MaxRound's (%d, %d) is not maximal", n, more[0], more[1], d0, d1)
			}
		}

		s := r.NewPoly()
		for i := range s.Coeffs {
			s.Coeffs[i] = 1
			if rng.IntN(2) == 0 {
				s.Coeffs[i] = q - 1
			}
		}
		sk := &SecretKey{Params: params, S: s}
		sk.precompute()
		dec, err := NewDecryptor(sk)
		if err != nil {
			t.Fatal(err)
		}

		// c1[j], j ≥ 1, enters phase coefficient 0 as −c1[j]·s[n−j]. Low
		// bits all zero lift by +2^(d−1), all ones by −(2^(d−1) − 1), at
		// d1 and at d1 + 2 alike; pick the one whose product with −s[n−j]
		// is positive. c0 lifts by +2^(d0−1) from multiples of 2^d0.
		ct := NewCiphertext(params, 2)
		c0, c1 := ct.Polys[0], ct.Polys[1]
		low := uint64(1)<<uint(d1+2) - 1
		for j := 1; j < n; j++ {
			v := (rng.Uint64() % (q >> uint(d1+2))) << uint(d1+2)
			if s.Coeffs[n-j] == 1 {
				v |= low // want a negative c1 error
			}
			c1.Coeffs[j] = v
		}
		for i := range c0.Coeffs {
			c0.Coeffs[i] = (rng.Uint64() % (q >> uint(d0))) << uint(d0)
		}
		// Solve c1[0] (its own rounding error is left to chance) so that
		// phase coefficient 0 is Δ·m0 + W exactly.
		const m0 = 5
		w := uint64(math.Floor(bound.w))
		want := mod.Add(mod.Mul(params.Delta(), m0), w)
		diff := mod.Sub(want, dec.phase(ct).Coeffs[0])
		c1.Coeffs[0] = diff
		if s.Coeffs[0] != 1 {
			c1.Coeffs[0] = mod.Neg(diff)
		}
		if got := dec.phase(ct).Coeffs[0]; got != want {
			t.Fatalf("n=%d: crafted phase %d, want %d", n, got, want)
		}

		// decrypt0 returns coefficient 0 of ct's plaintext and its noise.
		decrypt0 := func(ct *Ciphertext) (uint64, float64) {
			pt, err := dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			noise := mod.Centered(mod.Sub(dec.phase(ct).Coeffs[0], mod.Mul(params.Delta(), m0)))
			return pt.Poly.Coeffs[0], float64(noise)
		}
		edge := roundTrip(t, ct, d0, d1)
		m, noise := decrypt0(edge)
		if m != m0 {
			t.Fatalf("n=%d: crafted ciphertext at (%d, %d) decrypts to %d, want %d", n, d0, d1, m, m0)
		}
		// The craft must actually sit at the edge: within n + 2^d1 of the
		// bound (misaligned terms: c1[0], and one unit per negative lift).
		rounded := bound.Round(d0, d1).w
		if noise > rounded || noise < rounded-float64(n)-math.Ldexp(1, d1) {
			t.Fatalf("n=%d: crafted noise %.0f not at the rounded bound %.0f", n, noise, rounded)
		}
		t.Logf("n=%d: W = %.0f, drops (%d, %d), edge noise %.0f of Δ/2 = %d", n, bound.w, d0, d1, noise, params.Delta()/2)
		if m, noise := decrypt0(roundTrip(t, ct, d0, d1+2)); m == m0 {
			t.Fatalf("n=%d: two more c1 bits (%d, %d) still decrypt (noise %.0f, Δ/2 = %d)",
				n, d0, d1+2, noise, params.Delta()/2)
		}
	}
}

// TestRoundPredictionConservative: over random rounded replies — FC-style
// weighted sums of fresh ciphertexts sent at the drops MaxRound grants their
// bound — and over seeded uploads at SeededDropBits, the measured budget
// after the wire trip is never below the prediction, and the plaintext is
// the one sent.
func TestRoundPredictionConservative(t *testing.T) {
	const replies, uploads, terms = 200, 200, 16
	for _, n := range []int{2048, 8192} {
		params := roundTestParams(t, n)
		rig := newNoiseRig(t, params)
		fresh := params.FreshNoiseBound()
		pool := make([]*Ciphertext, terms)
		for i := range pool {
			pool[i] = rig.randomCT(t)
		}
		for i := 0; i < replies; i++ {
			ws := make([]int64, terms)
			var l1 float64
			for k := range ws {
				ws[k] = int64(rig.rng.IntN(127)) - 63
				l1 += math.Abs(float64(ws[k]))
			}
			acc := NewCiphertext(params, 2)
			if err := rig.eval.WeightedSumInto(acc, pool, ws); err != nil {
				t.Fatal(err)
			}
			bound := fresh.WeightedSum(l1, terms)
			d0, d1 := bound.MaxRound()
			if d0+d1 == 0 {
				t.Fatalf("n=%d reply %d: no drop granted on %.1f bits", n, i, bound.BudgetBits())
			}
			got := roundTrip(t, acc, d0, d1)
			assertConservative(t, "rounded reply", bound.Round(d0, d1).BudgetBits(), rig.measured(t, got))
			want, err := rig.dec.Decrypt(acc)
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := rig.dec.Decrypt(got); err != nil || !pt.Poly.Equal(want.Poly) {
				t.Fatalf("n=%d reply %d: rounded at (%d, %d) decrypts differently (err %v)", n, i, d0, d1, err)
			}
		}

		senc, err := NewSymmetricEncryptor(rig.dec.sk, ring.NewSeededSource(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if d := params.SeededDropBits(); d == 0 || rig.params.FreshNoiseBound().w < ring.GaussianBound()+math.Ldexp(1, d-1) {
			t.Fatalf("n=%d: SeededDropBits %d outside the fresh bound", n, d)
		}
		for i := 0; i < uploads; i++ {
			pt := NewPlaintext(params)
			for k := range pt.Poly.Coeffs {
				pt.Poly.Coeffs[k] = rig.rng.Uint64() % params.T
			}
			sc, err := senc.EncryptSeeded(pt)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := MarshalSeededCiphertext(sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalSeededCiphertext(raw, params)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := back.Expand()
			if err != nil {
				t.Fatal(err)
			}
			assertConservative(t, "seeded upload", fresh.BudgetBits(), rig.measured(t, ct))
			if got, err := rig.dec.Decrypt(ct); err != nil || !got.Poly.Equal(pt.Poly) {
				t.Fatalf("n=%d upload %d: rounded seeded upload decrypts wrong (err %v)", n, i, err)
			}
		}
	}
}
