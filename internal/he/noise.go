package he

import (
	"math"

	"hesgx/internal/ring"
)

// Static noise accountant.
//
// A NoiseBound tracks W, a conservative upper bound on ‖w‖∞ where w is the
// Δ-domain decryption noise of a ciphertext: phase(ct) = [c0 + c1·s]_q =
// Δ·m + w (mod q), with m the centered plaintext. Decryption stays exact
// while ‖w‖∞ < Δ/2 ≈ q/(2t), so the remaining budget in bits is
//
//	BudgetBits() = log2(q/(2t)) − log2(W) = MaxNoiseBudget() − log2(W),
//
// directly comparable to the measured value Decryptor.NoiseBudget computes
// from the real noise. Every bound below is a worst case (coherent signs,
// tail-cut error magnitudes), so the predicted budget is a conservative
// lower bound on the measured budget — the invariant the flight-report
// tests assert per layer.
//
// Throughout, r = PlainLift() = q mod t is the noise a plaintext-space wrap
// contributes in Δ-scaled arithmetic (1 under the low-lift chooser), and
// B = ring.GaussianBound() bounds each sampled error coefficient.
type NoiseBound struct {
	params Parameters
	w      float64
}

// FreshNoiseBound bounds a fresh encryption. Public-key encryption yields
// w = e1 + e2·s − e_pk·u with ternary s, u and ‖e‖∞ ≤ B, so
// ‖w‖∞ ≤ B·(2n+1). Symmetric (seeded) encryption carries only the single
// error term e (‖w‖∞ ≤ B), so the public-key bound is safely conservative
// for every upload path the framework uses.
func (p Parameters) FreshNoiseBound() NoiseBound {
	b := ring.GaussianBound()
	return NoiseBound{params: p, w: b * float64(2*p.N+1)}
}

// BudgetBits converts the tracked bound into remaining invariant-noise
// budget bits; non-positive means decryption is no longer guaranteed exact.
func (b NoiseBound) BudgetBits() float64 {
	if b.w < 1 {
		return b.params.MaxNoiseBudget()
	}
	return b.params.MaxNoiseBudget() - math.Log2(b.w)
}

// Exhausted reports whether the predicted budget has run out.
func (b NoiseBound) Exhausted() bool { return b.BudgetBits() <= 0 }

func (b NoiseBound) lift() float64 { return float64(b.params.PlainLift()) }

// Add bounds ct + ct: noises add, plus one possible plaintext wrap.
func (b NoiseBound) Add(o NoiseBound) NoiseBound {
	b.w = b.w + o.w + b.lift()
	return b
}

// AddPlain bounds ct + pt: the scaled plaintext is exact, so only a wrap
// contributes.
func (b NoiseBound) AddPlain() NoiseBound {
	b.w += b.lift()
	return b
}

// PackCoefficients bounds acc = Σ_{i<g} X^i·ctᵢ over g scalar ciphertexts
// (plaintext at coefficient 0) each bounded by b — the fold in front of a
// coefficient-packed enclave crossing. A monomial shift permutes the noise
// coefficients up to sign, so each term still contributes w; a constant moved
// to coefficient i < n never wraps, and the g−1 additions may each wrap once,
// as in Add: g·w + (g−1)·r. One ciphertext is unchanged.
func (b NoiseBound) PackCoefficients(g int) NoiseBound {
	b.w = float64(g)*b.w + float64(g-1)*b.lift()
	return b
}

// MulScalar bounds multiplication by a constant-coefficient plaintext whose
// centered value has magnitude absK (the scalar fast path): the noise
// scales by |k| and the Δ-approximation error Δ·t − q·⌊Δ⌋-style residue
// contributes r·(|k|/2 + 1).
func (b NoiseBound) MulScalar(absK float64) NoiseBound {
	b.w = absK*b.w + b.lift()*(absK/2+1)
	return b
}

// MulPlain bounds multiplication by a general plaintext operand with
// centered ℓ1 norm l1 spread over `terms` nonzero coefficients: the
// negacyclic convolution amplifies the noise by at most ‖p‖₁.
func (b NoiseBound) MulPlain(l1 float64, terms int) NoiseBound {
	b.w = l1*b.w + b.lift()*(l1/2+float64(terms))
	return b
}

// WeightedSum bounds acc = Σᵢ kᵢ·ctᵢ over `terms` ciphertexts each bounded
// by b, with Σ|kᵢ| = l1 — the linear-layer primitive (convolution window or
// FC row). Each product contributes |kᵢ|·w + r·(|kᵢ|/2 + 1) and each of the
// ≤ terms additions may wrap once more, so the total is
// l1·w + r·(l1/2 + 2·terms).
func (b NoiseBound) WeightedSum(l1 float64, terms int) NoiseBound {
	if l1 < 1 {
		l1 = 1 // a zero row still produces a (noiseless) MulScalar-by-0 output
	}
	b.w = l1*b.w + b.lift()*(l1/2+2*float64(terms))
	return b
}

// Mul bounds the ciphertext×ciphertext tensor product (t/q)·(ct1 ⊗ ct2).
// Writing phase products out: (Δm1+w1)(Δm2+w2) scaled by t/q gives
//
//	n·(t/2)·(w1+w2)      cross terms mᵢ⊛wⱼ with ‖m‖∞ ≤ t/2, ‖m‖₁ ≤ n·t/2
//	(t·n/q)·w1·w2        the noise product
//	r·n·t/2              Δ²-term wrap mod t plus the tΔ²/q ≈ Δ deviation
//	(1 + n + n²)/2       rounding of the three output components through
//	                     phase (δ0 + δ1⊛s + δ2⊛s², ‖s²‖₁ ≤ n²)
//
// all worst-case, so the bound is generous but sound.
//
// RNS note: the default multiplier evaluates this same tensor product over
// a word-size modulus chain (basis extension, per-limb convolution, and a
// DivRoundByLastModulus rescale), but its arithmetic is exact and bit-exact
// with the single-modulus oracle — the basis extension is an exact CRT
// embed and the rescale is an exact floor division, neither introducing an
// approximation term. The RNS rewrite therefore adds no noise terms here;
// this bound covers both backends unchanged (DESIGN §14 carries the
// rounding-error analysis).
func (b NoiseBound) Mul(o NoiseBound) NoiseBound {
	n := float64(b.params.N)
	t := float64(b.params.T)
	q := float64(b.params.Q)
	b.w = n*(t/2)*(b.w+o.w) + (t*n/q)*b.w*o.w + b.lift()*n*t/2 + (1+n+n*n)/2
	return b
}

// Relinearize bounds the size-3 → size-2 conversion: the decomposition into
// `digits` base-2^DecompBaseBits digits convolves each digit polynomial
// (‖d‖∞ < base, n coefficients) with one evaluation-key error term, adding
// digits·n·base·B.
func (b NoiseBound) Relinearize() NoiseBound {
	base := math.Pow(2, float64(b.params.DecompBaseBits))
	b.w += float64(b.params.DecompDigits()) * float64(b.params.N) * base * ring.GaussianBound()
	return b
}

// KeySwitch bounds a rotation (Galois key switch) at decomposition base
// 2^baseBits: the automorphism itself is a signed permutation and leaves
// ‖w‖∞ unchanged, and folding the rotated digits (‖d‖∞ < base, n
// coefficients each) through the key's error terms adds digits·n·base·B —
// the same shape as Relinearize, at the Galois keys' own (smaller) base.
func (b NoiseBound) KeySwitch(baseBits int) NoiseBound {
	base := math.Pow(2, float64(baseBits))
	b.w += float64(b.params.DecompDigitsFor(baseBits)) * float64(b.params.N) * base * ring.GaussianBound()
	return b
}

// Refresh models the enclave's decrypt–re-encrypt: the output is a fresh
// encryption, so the accountant resets (§IV-E — the reason the hybrid
// pipeline never runs out of budget between SGX layers).
func (b NoiseBound) Refresh() NoiseBound {
	return b.params.FreshNoiseBound()
}
