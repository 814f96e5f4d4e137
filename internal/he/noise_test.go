package he

import (
	"math/rand/v2"
	"testing"

	"hesgx/internal/ring"
)

// noiseRig is the machinery the accountant tests share: keys, an
// encryptor/decryptor pair, and an evaluator over one parameter set.
type noiseRig struct {
	params Parameters
	enc    *Encryptor
	dec    *Decryptor
	eval   *Evaluator
	ek     *EvaluationKeys
	rng    *rand.Rand
}

func newNoiseRig(t *testing.T, params Parameters) *noiseRig {
	t.Helper()
	kg, err := NewKeyGenerator(params, ring.NewSeededSource(7))
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	sk, pk := kg.GenKeyPair()
	enc, err := NewEncryptor(pk, ring.NewSeededSource(8))
	if err != nil {
		t.Fatalf("encryptor: %v", err)
	}
	dec, err := NewDecryptor(sk)
	if err != nil {
		t.Fatalf("decryptor: %v", err)
	}
	eval, err := NewEvaluator(params)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	return &noiseRig{
		params: params,
		enc:    enc,
		dec:    dec,
		eval:   eval,
		ek:     kg.GenEvaluationKeys(sk),
		rng:    rand.New(rand.NewPCG(9, 10)),
	}
}

// randomCT encrypts a fully random plaintext — every coefficient uniform
// mod t, so plaintext-space wraps are exercised constantly.
func (r *noiseRig) randomCT(t *testing.T) *Ciphertext {
	t.Helper()
	pt := NewPlaintext(r.params)
	for i := range pt.Poly.Coeffs {
		pt.Poly.Coeffs[i] = r.rng.Uint64() % r.params.T
	}
	ct, err := r.enc.Encrypt(pt)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	return ct
}

// measured returns the real remaining budget of ct.
func (r *noiseRig) measured(t *testing.T, ct *Ciphertext) float64 {
	t.Helper()
	b, err := r.dec.NoiseBudget(ct)
	if err != nil {
		t.Fatalf("noise budget: %v", err)
	}
	return b
}

// assertConservative fails unless predicted <= measured: the static
// accountant must never promise more budget than the ciphertext has.
func assertConservative(t *testing.T, name string, predicted, measured float64) {
	t.Helper()
	if predicted > measured+1e-9 {
		t.Errorf("%s: predicted budget %.2f bits exceeds measured %.2f bits", name, predicted, measured)
	}
}

// noiseTestParams returns the two parameter regimes the accountant must
// cover: the low-lift inference tier (r_t(q) = 1) and the paper tier with a
// large lift (r_t(q) up to t), where wrap noise actually matters.
func noiseTestParams(t *testing.T) map[string]Parameters {
	t.Helper()
	lowLift, err := DefaultParametersLowLift(1024, 1<<20)
	if err != nil {
		t.Fatalf("low-lift params: %v", err)
	}
	paper, err := DefaultParameters(1024, 257)
	if err != nil {
		t.Fatalf("paper params: %v", err)
	}
	return map[string]Parameters{"lowlift": lowLift, "paper": paper}
}

func TestNoiseBoundConservative(t *testing.T) {
	for name, params := range noiseTestParams(t) {
		t.Run(name, func(t *testing.T) {
			rig := newNoiseRig(t, params)
			fresh := params.FreshNoiseBound()

			t.Run("fresh", func(t *testing.T) {
				if fresh.BudgetBits() <= 0 {
					t.Fatalf("fresh predicted budget %.2f bits must be positive", fresh.BudgetBits())
				}
				for i := 0; i < 20; i++ {
					ct := rig.randomCT(t)
					assertConservative(t, "fresh", fresh.BudgetBits(), rig.measured(t, ct))
				}
			})

			t.Run("add_chain", func(t *testing.T) {
				acc := rig.randomCT(t)
				model := fresh
				for i := 0; i < 15; i++ {
					var err error
					if acc, err = rig.eval.Add(acc, rig.randomCT(t)); err != nil {
						t.Fatalf("add: %v", err)
					}
					model = model.Add(fresh)
				}
				assertConservative(t, "add x16", model.BudgetBits(), rig.measured(t, acc))
			})

			t.Run("add_plain", func(t *testing.T) {
				pt := NewPlaintext(params)
				for i := range pt.Poly.Coeffs {
					pt.Poly.Coeffs[i] = rig.rng.Uint64() % params.T
				}
				ct, err := rig.eval.AddPlain(rig.randomCT(t), pt)
				if err != nil {
					t.Fatalf("add plain: %v", err)
				}
				assertConservative(t, "add_plain", fresh.AddPlain().BudgetBits(), rig.measured(t, ct))
			})

			t.Run("mul_scalar", func(t *testing.T) {
				for _, k := range []uint64{1, 7, 100, params.T - 3} {
					ct, err := rig.eval.MulScalar(rig.randomCT(t), k)
					if err != nil {
						t.Fatalf("mul scalar: %v", err)
					}
					absK := float64(k)
					if k > params.T/2 {
						absK = float64(params.T - k)
					}
					assertConservative(t, "mul_scalar", fresh.MulScalar(absK).BudgetBits(), rig.measured(t, ct))
				}
			})

			t.Run("mul_plain", func(t *testing.T) {
				// A sparse multi-coefficient operand with known centered ℓ1.
				pt := NewPlaintext(params)
				coeffs := []uint64{3, params.T - 2, 5, params.T - 7}
				for i, c := range coeffs {
					pt.Poly.Coeffs[i*17] = c
				}
				l1 := float64(3 + 2 + 5 + 7)
				ct, err := rig.eval.MulPlain(rig.randomCT(t), pt)
				if err != nil {
					t.Fatalf("mul plain: %v", err)
				}
				assertConservative(t, "mul_plain", fresh.MulPlain(l1, len(coeffs)).BudgetBits(), rig.measured(t, ct))
			})

			t.Run("weighted_sum", func(t *testing.T) {
				// Emulates one FC output: acc = Σ kᵢ·ctᵢ over 32 terms with
				// signed weights, exactly the engine's scalar fast path.
				const terms = 32
				var l1 float64
				cts := make([]*Ciphertext, terms)
				ws := make([]int64, terms)
				for i := range cts {
					k := int64(rig.rng.IntN(63)) - 31
					if k >= 0 {
						l1 += float64(k)
					} else {
						l1 -= float64(k)
					}
					ws[i], cts[i] = k, rig.randomCT(t)
				}
				acc := NewCiphertext(params, cts[0].Size())
				acc.Form = cts[0].Form
				if err := rig.eval.WeightedSumInto(acc, cts, ws); err != nil {
					t.Fatalf("weighted sum: %v", err)
				}
				assertConservative(t, "weighted_sum", fresh.WeightedSum(l1, terms).BudgetBits(), rig.measured(t, acc))
			})

			t.Run("mul_relin", func(t *testing.T) {
				a, b := rig.randomCT(t), rig.randomCT(t)
				prod, err := rig.eval.Mul(a, b)
				if err != nil {
					t.Fatalf("mul: %v", err)
				}
				model := fresh.Mul(fresh)
				assertConservative(t, "mul", model.BudgetBits(), rig.measured(t, prod))
				relin, err := rig.eval.Relinearize(prod, rig.ek)
				if err != nil {
					t.Fatalf("relinearize: %v", err)
				}
				assertConservative(t, "mul+relin", model.Relinearize().BudgetBits(), rig.measured(t, relin))
			})

			t.Run("refresh", func(t *testing.T) {
				// Burn budget, then decrypt–re-encrypt: the accountant resets
				// to fresh and the measured budget agrees.
				ct, err := rig.eval.MulScalar(rig.randomCT(t), 100)
				if err != nil {
					t.Fatalf("mul scalar: %v", err)
				}
				model := fresh.MulScalar(100)
				pt, _, err := rig.dec.DecryptWithBudget(ct)
				if err != nil {
					t.Fatalf("decrypt with budget: %v", err)
				}
				again, err := rig.enc.Encrypt(pt)
				if err != nil {
					t.Fatalf("re-encrypt: %v", err)
				}
				assertConservative(t, "refresh", model.Refresh().BudgetBits(), rig.measured(t, again))
			})
		})
	}
}

// TestDecryptWithBudget checks the fused path agrees with the separate
// Decrypt and NoiseBudget calls it replaces inside the enclave.
func TestDecryptWithBudget(t *testing.T) {
	params, err := DefaultParametersLowLift(1024, 1<<20)
	if err != nil {
		t.Fatalf("params: %v", err)
	}
	rig := newNoiseRig(t, params)
	ct, err := rig.eval.MulScalar(rig.randomCT(t), 42)
	if err != nil {
		t.Fatalf("mul scalar: %v", err)
	}
	want, err := rig.dec.Decrypt(ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	wantBudget, err := rig.dec.NoiseBudget(ct)
	if err != nil {
		t.Fatalf("noise budget: %v", err)
	}
	got, gotBudget, err := rig.dec.DecryptWithBudget(ct)
	if err != nil {
		t.Fatalf("decrypt with budget: %v", err)
	}
	if gotBudget != wantBudget {
		t.Errorf("budget %v != %v", gotBudget, wantBudget)
	}
	for i, c := range want.Poly.Coeffs {
		if got.Poly.Coeffs[i] != c {
			t.Fatalf("coeff %d: %d != %d", i, got.Poly.Coeffs[i], c)
		}
	}
	// Exhaustion is visible: multiplying the budget away goes non-positive.
	b := params.FreshNoiseBound()
	for !b.Exhausted() {
		b = b.MulScalar(float64(params.T / 2))
	}
	if b.BudgetBits() > 0 {
		t.Errorf("exhausted bound reports %v bits", b.BudgetBits())
	}
}
