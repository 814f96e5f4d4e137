package he

import (
	"strings"
	"testing"
)

// negacyclicShift is the plaintext oracle for X^k·m mod (X^n+1, t).
func negacyclicShift(m []uint64, k int, t uint64) []uint64 {
	n := len(m)
	out := make([]uint64, n)
	for j, v := range m {
		if j+k < n {
			out[j+k] = v
		} else {
			out[j+k-n] = (t - v) % t
		}
	}
	return out
}

// TestMulMonomialAddIntoShifts: acc += X^k·ct decrypts to the negacyclic
// shift of ct's plaintext — coefficients that wrap past n change sign — for
// the identity, a one-step shift and the last monomial, in both lift regimes.
func TestMulMonomialAddIntoShifts(t *testing.T) {
	for name, params := range noiseTestParams(t) {
		t.Run(name, func(t *testing.T) {
			rig := newNoiseRig(t, params)
			ct := rig.randomCT(t)
			want, err := rig.dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, params.N - 1} {
				acc := NewCiphertext(params, ct.Size())
				if err := rig.eval.MulMonomialAddInto(acc, ct, k); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				got, err := rig.dec.Decrypt(acc)
				if err != nil {
					t.Fatal(err)
				}
				shifted := negacyclicShift(want.Poly.Coeffs, k, params.T)
				for i := range shifted {
					if got.Poly.Coeffs[i] != shifted[i] {
						t.Fatalf("k=%d: coefficient %d = %d, want %d", k, i, got.Poly.Coeffs[i], shifted[i])
					}
				}
				// It accumulates: a second pass doubles the plaintext.
				if err := rig.eval.MulMonomialAddInto(acc, ct, k); err != nil {
					t.Fatal(err)
				}
				if got, err = rig.dec.Decrypt(acc); err != nil {
					t.Fatal(err)
				}
				if i := params.N / 2; got.Poly.Coeffs[i] != 2*shifted[i]%params.T {
					t.Errorf("k=%d twice: coefficient %d = %d, want %d", k, i, got.Poly.Coeffs[i], 2*shifted[i]%params.T)
				}
			}
		})
	}
}

// TestMulMonomialKeepsNoiseBudget: a monomial shift is a signed permutation of
// the noise coefficients, so a scalar ciphertext — whose constant never wraps
// — measures exactly the budget it had, whatever the degree.
func TestMulMonomialKeepsNoiseBudget(t *testing.T) {
	for name, params := range noiseTestParams(t) {
		t.Run(name, func(t *testing.T) {
			rig := newNoiseRig(t, params)
			ct, err := rig.enc.EncryptScalar(params.T - 5)
			if err != nil {
				t.Fatal(err)
			}
			before := rig.measured(t, ct)
			for _, k := range []int{0, 1, params.N / 3, params.N - 1} {
				acc := NewCiphertext(params, ct.Size())
				if err := rig.eval.MulMonomialAddInto(acc, ct, k); err != nil {
					t.Fatal(err)
				}
				if after := rig.measured(t, acc); after != before {
					t.Errorf("k=%d: budget %.4f bits after the shift, %.4f before", k, after, before)
				}
			}
		})
	}
}

func TestMulMonomialAddIntoRefusals(t *testing.T) {
	params := noiseTestParams(t)["lowlift"]
	rig := newNoiseRig(t, params)
	ct := rig.randomCT(t)
	acc := NewCiphertext(params, 2)
	for name, tc := range map[string]struct {
		acc, ct *Ciphertext
		k       int
		says    string
	}{
		"negative degree": {acc, ct, -1, "outside [0"},
		"degree n":        {acc, ct, params.N, "outside [0"},
		"size mismatch":   {NewCiphertext(params, 3), ct, 1, "size mismatch"},
		"nil":             {acc, nil, 1, "nil ciphertext"},
	} {
		if err := rig.eval.MulMonomialAddInto(tc.acc, tc.ct, tc.k); err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: error %v, want one naming %q", name, err, tc.says)
		}
	}
	// A monomial is a pointwise vector in evaluation form, not a shift.
	ntt := ct.Copy()
	ntt.ToNTT()
	if err := rig.eval.MulMonomialAddInto(acc, ntt, 1); err == nil || !strings.Contains(err.Error(), "coefficient-form") {
		t.Errorf("NTT-form operand: error %v, want a coefficient-form refusal", err)
	}
	nttAcc := NewCiphertext(params, 2)
	nttAcc.Form = NTTForm
	if err := rig.eval.MulMonomialAddInto(nttAcc, ct, 1); err == nil || !strings.Contains(err.Error(), "coefficient-form") {
		t.Errorf("NTT-form accumulator: error %v, want a coefficient-form refusal", err)
	}
	for i, c := range acc.Polys[0].Coeffs {
		if c != 0 {
			t.Fatalf("a refused call wrote coefficient %d of the accumulator", i)
		}
	}
}

// TestMonomialFoldPacksScalars: Σ_i X^i·Enc(m_i) over n scalar ciphertexts is
// one ciphertext whose plaintext coefficient i is m_i, and the accountant's
// bound for that fold is a lower bound on the budget it measures.
func TestMonomialFoldPacksScalars(t *testing.T) {
	for name, params := range noiseTestParams(t) {
		t.Run(name, func(t *testing.T) {
			rig := newNoiseRig(t, params)
			n := params.N
			want := make([]uint64, n)
			acc := NewCiphertext(params, 2)
			for i := range want {
				want[i] = rig.rng.Uint64() % params.T
				ct, err := rig.enc.EncryptScalar(want[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := rig.eval.MulMonomialAddInto(acc, ct, i); err != nil {
					t.Fatal(err)
				}
			}
			got, err := rig.dec.Decrypt(acc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got.Poly.Coeffs[i] != want[i] {
					t.Fatalf("coefficient %d = %d, want %d", i, got.Poly.Coeffs[i], want[i])
				}
			}
			fresh := params.FreshNoiseBound()
			assertConservative(t, "fold of n", fresh.PackCoefficients(n).BudgetBits(), rig.measured(t, acc))
			if one := fresh.PackCoefficients(1).BudgetBits(); one != fresh.BudgetBits() {
				t.Errorf("packing one ciphertext predicts %.2f bits, a fresh one %.2f", one, fresh.BudgetBits())
			}
		})
	}
}
