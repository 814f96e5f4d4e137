package core

import (
	"fmt"

	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/ring"
)

// Coefficient-packed FC tail.
//
// A whole-map pool ECALL — pool-unpack at the end of the rotation-packed
// prefix, or the scalar layout's planner-owned pool_full/pool_max — that hands
// its output to the scalar FC kernel pays one fresh public-key encryption per
// pooled value (864 for the paper CNN) under the enclave tax, only so the FC
// can read one value per ciphertext. The coefficient tail instead asks the
// enclave for ONE ciphertext whose plaintext is x(X) = Σ_i x_i·X^i (pooled
// value i at coefficient i, channel-major — the order flatten assumes) and
// computes each FC output as a single plaintext product:
//
//	W_o(X) = w_{o,0} − Σ_{i≥1} w_{o,i}·X^{n−i}
//
// In Z_t[X]/(X^n+1), X^i·X^{n−i} = X^n = −1, so coefficient 0 of x·W_o is
// exactly Σ_i w_{o,i}·x_i — the same integer the scalar kernel accumulates,
// mod the same t. Coefficients 1…n−1 hold other weight/activation
// combinations the scalar layout never produces, so the bias plaintext
// added to every output also carries a fresh uniform mask on those
// coefficients: the client decrypts its logit at coefficient 0 and uniform
// noise everywhere else.

// planCoeffTail decides whether the whole-map pool step in front of
// steps[prefix] hands the FC a single coefficient-packed ciphertext, returning
// the predicted budget of the FC outputs on that tail, or the reason the pool
// keeps emitting scalar ciphertexts.
func planCoeffTail(params he.Parameters, steps []*planStep, prefix int) (budgetBits float64, reason string) {
	if len(steps) < prefix+2 || steps[prefix].kind != stepFlatten || steps[prefix+1].kind != stepFC {
		return 0, "pool is not followed by flatten → fully connected"
	}
	fc := steps[prefix+1].fc
	if fc.In > params.N {
		return 0, fmt.Sprintf("fc input %d exceeds %d plaintext coefficients", fc.In, params.N)
	}
	// Every consumer of the tail's outputs reads coefficient 0 and ignores the
	// masked by-products beside it — except the fold in front of a
	// coefficient-packed pool crossing, which would shift them onto its values.
	next := steps[prefix+2:]
	for len(next) > 0 && (next[0].kind == stepFlatten || (next[0].kind == stepAct && next[0].fused)) {
		next = next[1:]
	}
	if len(next) > 0 && next[0].kind == stepPool && next[0].coeffIn > 0 {
		return 0, "fc outputs reach a coefficient-packed pool crossing unrefreshed"
	}
	// One plaintext product against a row of ℓ1 norm ≤ MaxRowL1 over a
	// fresh (enclave re-encrypted) input, plus the bias/mask plaintext: the
	// same ℓ1 amplification as the scalar kernel's WeightedSum.
	noise := params.FreshNoiseBound().MulPlain(float64(fc.MaxRowL1()), fc.In).AddPlain()
	if noise.Exhausted() {
		return 0, fmt.Sprintf("coefficient-packed fc noise bound exhausted (%.1f bits; lower WeightScale)", noise.BudgetBits())
	}
	return noise.BudgetBits(), ""
}

// encodeFCRows builds the coefficient tail's weight operands: one prepared
// plaintext per FC output row (see the file comment for the encoding).
func (e *HybridEngine) encodeFCRows(s *planStep) error {
	q, n := s.fc, e.params.N
	s.fcRowOps = make([]*he.PlainOperand, q.Out)
	for o := range s.fcRowOps {
		pt := he.NewPlaintext(e.params)
		for i, w := range q.W[o*q.In : (o+1)*q.In] {
			idx := 0
			if i > 0 {
				idx, w = n-i, -w
			}
			pt.Poly.Coeffs[idx] = e.scalar.EncodeValue(w)
		}
		op, err := e.eval.PrepareOperand(pt)
		if err != nil {
			return fmt.Errorf("core: encoding fc row %d: %w", o, err)
		}
		s.fcRowOps[o] = op
	}
	return nil
}

// runFCCoeff computes the fully connected step over one coefficient-packed
// input carrying `values` pooled activations: the input is hoisted to
// evaluation form once, then each output costs one pointwise product, one
// inverse transform and the masked bias add. Outputs carry their value at
// coefficient 0, where scalar decryption reads it.
func (e *HybridEngine) runFCCoeff(s *planStep, in []*he.Ciphertext, values, workers int) ([]*he.Ciphertext, error) {
	q := s.fc
	if len(in) != 1 {
		return nil, fmt.Errorf("coefficient-packed fc input %d cts, want 1", len(in))
	}
	if values != q.In {
		return nil, fmt.Errorf("coefficient-packed fc input carries %d values, want %d", values, q.In)
	}
	// ToNTT converts in place, so it runs on a copy, rebound to the engine's
	// parameter instance: the transform then uses the engine ring's scratch
	// pools and NTT counters (a decoded ciphertext carries an equal but
	// distinct ring).
	x := in[0].Copy()
	x.Params = e.params
	x.ToNTT()
	out := make([]*he.Ciphertext, q.Out)
	err := linear.ParallelFor(q.Out, workers, func(o int) error {
		ct, err := e.eval.MulPlainOperand(x, s.fcRowOps[o])
		if err != nil {
			return err
		}
		ct.ToCoeff()
		if err := e.eval.AddPlainInto(ct, e.maskedBias(s.bias[o])); err != nil {
			return err
		}
		out[o] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maskedBias returns bias (a constant-coefficient plaintext) with fresh
// uniform values mod t on coefficients 1…n−1. The mask comes from the
// system's entropy source, never a seeded one: it is what keeps the
// by-products of the plaintext product from the key holder.
func (e *HybridEngine) maskedBias(bias *he.Plaintext) *he.Plaintext {
	src := ring.NewCryptoSource()
	t := e.params.T
	// Rejection bound: largest multiple of t below 2^64.
	bound := ^uint64(0) - (^uint64(0) % t)
	pt := bias.Copy()
	for i := 1; i < len(pt.Poly.Coeffs); i++ {
		v := src.Uint64()
		for v >= bound {
			v = src.Uint64()
		}
		pt.Poly.Coeffs[i] = v % t
	}
	return pt
}
