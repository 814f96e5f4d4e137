package he

import (
	"fmt"
	"sync"

	"hesgx/internal/ring"
)

// Evaluator performs homomorphic operations on FV ciphertexts. It is
// immutable after construction (the lazily built multiplier is internally
// synchronized) and safe for concurrent use.
type Evaluator struct {
	params Parameters
	// schoolbook replaces the RNS multiply with the O(n²) exact integer
	// convolution — the reference tests compare the RNS path against.
	schoolbook bool
	// rns is the ciphertext-multiply backend: the word-size RNS modulus chain
	// (ring.RNSMultiplier), every supported degree. Built on first use so
	// evaluators that never tensor (plaintext-only layers, hybrid refresh
	// paths) skip the auxiliary-basis construction entirely.
	rnsOnce sync.Once
	rns     *ring.RNSMultiplier
	rnsErr  error
}

// EvaluatorOption customizes evaluator construction.
type EvaluatorOption func(*Evaluator)

// WithSchoolbookTensor forces the O(n^2) schoolbook path for ciphertext
// multiplication — the exact reference implementation at every degree, kept
// for cross-checking the RNS multiply and as the ablation baseline.
func WithSchoolbookTensor() EvaluatorOption {
	return func(ev *Evaluator) { ev.schoolbook = true }
}

// NewEvaluator builds an evaluator for the parameter set. Ciphertext
// multiplication runs on the RNS modulus chain unless WithSchoolbookTensor
// selects the reference.
func NewEvaluator(params Parameters, opts ...EvaluatorOption) (*Evaluator, error) {
	if !params.Valid() {
		return nil, fmt.Errorf("he: invalid parameters")
	}
	ev := &Evaluator{params: params}
	for _, o := range opts {
		o(ev)
	}
	return ev, nil
}

// rnsMultiplier returns the lazily constructed RNS backend.
func (ev *Evaluator) rnsMultiplier() (*ring.RNSMultiplier, error) {
	ev.rnsOnce.Do(func() {
		ev.rns, ev.rnsErr = ring.NewRNSMultiplier(ev.params.Ring(), ev.params.T)
	})
	if ev.rnsErr != nil {
		return nil, fmt.Errorf("he: rns multiplier: %w", ev.rnsErr)
	}
	return ev.rns, nil
}

func (ev *Evaluator) check(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct == nil {
			return fmt.Errorf("he: nil ciphertext")
		}
		if !ct.Params.Equal(ev.params) {
			return fmt.Errorf("he: ciphertext parameter mismatch")
		}
	}
	return nil
}

// checkCoeff rejects evaluation-form inputs for ops only defined on
// coefficient-domain ciphertexts (tensor products, relinearization).
func checkCoeff(op string, cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct.Form != CoeffForm {
			return fmt.Errorf("he: %s requires coefficient-form ciphertexts; got %v form (call ToCoeff)", op, ct.Form)
		}
	}
	return nil
}

// Add returns ct0 + ct1 (the Add algorithm in §II-B), extended
// componentwise to size-3 ciphertexts. Addition is pointwise in either
// domain, but both operands must be in the same one.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if err := ev.check(ct0, ct1); err != nil {
		return nil, err
	}
	if ct0.Form != ct1.Form {
		return nil, fmt.Errorf("he: Add form mismatch (%v vs %v)", ct0.Form, ct1.Form)
	}
	r := ev.params.Ring()
	size := max(ct0.Size(), ct1.Size())
	out := NewCiphertext(ev.params, size)
	out.Form = ct0.Form
	for i := 0; i < size; i++ {
		switch {
		case i < ct0.Size() && i < ct1.Size():
			r.Add(ct0.Polys[i], ct1.Polys[i], out.Polys[i])
		case i < ct0.Size():
			ct0.Polys[i].CopyTo(out.Polys[i])
		default:
			ct1.Polys[i].CopyTo(out.Polys[i])
		}
	}
	return out, nil
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	neg, err := ev.Neg(ct1)
	if err != nil {
		return nil, err
	}
	return ev.Add(ct0, neg)
}

// Neg returns -ct. Negation is pointwise in either domain.
func (ev *Evaluator) Neg(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	r := ev.params.Ring()
	out := NewCiphertext(ev.params, ct.Size())
	out.Form = ct.Form
	for i := range ct.Polys {
		r.Neg(ct.Polys[i], out.Polys[i])
	}
	return out, nil
}

// AddPlain returns ct + pt: the plaintext is scaled by Δ and added to c0.
// Works on either form (the scaled plaintext is transformed to match).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	out := ct.Copy()
	if err := ev.AddPlainInto(out, pt); err != nil {
		return nil, err
	}
	return out, nil
}

// AddPlainInto computes ct += pt in place — the allocation-free bias add of
// the linear layers. In coefficient form Δ·mⱼ is added only where mⱼ ≠ 0, so
// a scalar-encoded bias costs one coefficient rather than n. In evaluation
// form the scaled plaintext is transformed in pooled scratch, so
// evaluation-form accumulators take the bias without leaving evaluation form.
func (ev *Evaluator) AddPlainInto(ct *Ciphertext, pt *Plaintext) error {
	if err := ev.check(ct); err != nil {
		return err
	}
	if err := pt.Validate(); err != nil {
		return fmt.Errorf("he: add plain: %w", err)
	}
	r := ev.params.Ring()
	if ct.Form == CoeffForm {
		mod, delta, c0 := r.Mod, ev.params.Delta(), ct.Polys[0].Coeffs
		for j, m := range pt.Poly.Coeffs {
			if m != 0 {
				c0[j] = mod.Add(c0[j], mod.Mul(m, delta))
			}
		}
		return nil
	}
	dm := r.GetPoly()
	r.MulScalar(pt.Poly, ev.params.Delta(), dm)
	r.NTT(dm)
	r.Add(ct.Polys[0], dm, ct.Polys[0])
	r.PutPoly(dm)
	return nil
}

// SubPlain returns ct - pt.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("he: sub plain: %w", err)
	}
	r := ev.params.Ring()
	out := ct.Copy()
	dm := r.GetPoly()
	r.MulScalar(pt.Poly, ev.params.Delta(), dm)
	if ct.Form == NTTForm {
		r.NTT(dm)
	}
	r.Sub(out.Polys[0], dm, out.Polys[0])
	r.PutPoly(dm)
	return out, nil
}

// liftPlain maps a plaintext into R_q with the noise-minimizing centered
// lift and returns it in NTT domain.
func (ev *Evaluator) liftPlain(pt *Plaintext) ring.Poly {
	r := ev.params.Ring()
	lifted := r.NewPoly()
	for i, c := range pt.Poly.Coeffs {
		lifted.Coeffs[i] = ev.params.LiftCentered(c)
	}
	r.NTT(lifted)
	return lifted
}

// MulPlain returns ct * pt (ciphertext × plaintext, the C×P operation the
// paper counts in Fig. 4). The plaintext is lifted centered into R_q.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("he: mul plain: %w", err)
	}
	return ev.mulPlainNTT(ct, ev.liftPlain(pt), nil)
}

// PlainOperand is a plaintext pre-lifted into NTT form, for repeated
// multiplication against many ciphertexts (encoded model weights). Shoup is
// the per-coefficient Shoup companion of NTT, precomputed so every pointwise
// product against the operand uses the cheaper MulShoup.
type PlainOperand struct {
	Params Parameters
	NTT    ring.Poly
	Shoup  []uint64
}

// PrepareOperand lifts and transforms pt once; MulPlainOperand then skips
// that work on every use.
func (ev *Evaluator) PrepareOperand(pt *Plaintext) (*PlainOperand, error) {
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("he: prepare operand: %w", err)
	}
	r := ev.params.Ring()
	lifted := ev.liftPlain(pt)
	return &PlainOperand{Params: ev.params, NTT: lifted, Shoup: r.ShoupPrecompute(lifted)}, nil
}

// MulPlainOperand multiplies ct by a prepared plaintext operand. A
// coefficient-form ct pays a forward+inverse NTT; an NTT-form ct multiplies
// pointwise with no transforms at all and stays in evaluation form.
func (ev *Evaluator) MulPlainOperand(ct *Ciphertext, op *PlainOperand) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if !op.Params.Equal(ev.params) {
		return nil, fmt.Errorf("he: operand parameter mismatch")
	}
	return ev.mulPlainNTT(ct, op.NTT, op.Shoup)
}

// MulPlainOperandAddInto computes acc += ct * op entirely in evaluation
// form: one fused pointwise multiply-accumulate per component, zero NTTs,
// zero allocations. Both acc and ct must already be NTT form and the same
// size.
func (ev *Evaluator) MulPlainOperandAddInto(acc, ct *Ciphertext, op *PlainOperand) error {
	if err := ev.check(acc, ct); err != nil {
		return err
	}
	if !op.Params.Equal(ev.params) {
		return fmt.Errorf("he: operand parameter mismatch")
	}
	if acc.Form != NTTForm || ct.Form != NTTForm {
		return fmt.Errorf("he: MulPlainOperandAddInto requires NTT-form ciphertexts (acc %v, ct %v)", acc.Form, ct.Form)
	}
	if acc.Size() != ct.Size() {
		return fmt.Errorf("he: MulPlainOperandAddInto size mismatch %d vs %d", acc.Size(), ct.Size())
	}
	r := ev.params.Ring()
	for i := range ct.Polys {
		r.MulCoeffsShoupAdd(ct.Polys[i], op.NTT, op.Shoup, acc.Polys[i])
	}
	return nil
}

// mulPlainNTT multiplies ct by an NTT-domain operand. mShoup may be nil
// (falls back to Barrett products); both give exact results mod q.
func (ev *Evaluator) mulPlainNTT(ct *Ciphertext, mNTT ring.Poly, mShoup []uint64) (*Ciphertext, error) {
	r := ev.params.Ring()
	out := NewCiphertext(ev.params, ct.Size())
	out.Form = ct.Form
	if ct.Form == NTTForm {
		for i := range ct.Polys {
			if mShoup != nil {
				r.MulCoeffsShoup(ct.Polys[i], mNTT, mShoup, out.Polys[i])
			} else {
				r.MulCoeffs(ct.Polys[i], mNTT, out.Polys[i])
			}
		}
		return out, nil
	}
	for i := range ct.Polys {
		r.MulNTTLazy(ct.Polys[i], mNTT, out.Polys[i])
	}
	return out, nil
}

// Mul returns the size-3 tensor product of two size-2 ciphertexts (the
// Multiply algorithm in §II-B): each output component is
// round(t/q * (c_i ⊛ d_j)) with exact integer convolution. Relinearize (or
// an enclave refresh) reduces the result back to size 2.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if err := ev.check(ct0, ct1); err != nil {
		return nil, err
	}
	if ct0.Size() != 2 || ct1.Size() != 2 {
		return nil, fmt.Errorf("he: Mul requires size-2 ciphertexts (relinearize first); got %d and %d", ct0.Size(), ct1.Size())
	}
	if err := checkCoeff("Mul", ct0, ct1); err != nil {
		return nil, err
	}
	if !ev.schoolbook {
		rm, err := ev.rnsMultiplier()
		if err != nil {
			return nil, err
		}
		out := NewCiphertext(ev.params, 3)
		rm.MulScaleRound(ct0.Polys[0], ct0.Polys[1], ct1.Polys[0], ct1.Polys[1],
			out.Polys[0], out.Polys[1], out.Polys[2])
		return out, nil
	}
	r := ev.params.Ring()
	t := ev.params.T
	q := ev.params.Q

	c0 := r.GetCentered()
	c1 := r.GetCentered()
	d0 := r.GetCentered()
	d1 := r.GetCentered()
	defer func() {
		r.PutCentered(c0)
		r.PutCentered(c1)
		r.PutCentered(d0)
		r.PutCentered(d1)
	}()
	r.CenteredInto(ct0.Polys[0], c0)
	r.CenteredInto(ct0.Polys[1], c1)
	r.CenteredInto(ct1.Polys[0], d0)
	r.CenteredInto(ct1.Polys[1], d1)

	out := NewCiphertext(ev.params, 3)
	// out0 = round(t/q * c0*d0)
	v00 := ring.NegacyclicConvolveInt(c0, d0)
	// out1 = round(t/q * (c0*d1 + c1*d0)) — sum the exact convolutions
	// before scaling so rounding happens once.
	x := ring.NegacyclicConvolveInt(c0, d1)
	y := ring.NegacyclicConvolveInt(c1, d0)
	// out2 = round(t/q * c1*d1)
	v11 := ring.NegacyclicConvolveInt(c1, d1)
	for k := range v00 {
		out.Polys[0].Coeffs[k] = v00[k].ScaleRoundMod(t, q, q)
		out.Polys[1].Coeffs[k] = x[k].Add(y[k]).ScaleRoundMod(t, q, q)
		out.Polys[2].Coeffs[k] = v11[k].ScaleRoundMod(t, q, q)
	}
	return out, nil
}

// Square returns ct*ct, saving one convolution versus Mul.
func (ev *Evaluator) Square(ct *Ciphertext) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if ct.Size() != 2 {
		return nil, fmt.Errorf("he: Square requires a size-2 ciphertext")
	}
	if err := checkCoeff("Square", ct); err != nil {
		return nil, err
	}
	if !ev.schoolbook {
		rm, err := ev.rnsMultiplier()
		if err != nil {
			return nil, err
		}
		out := NewCiphertext(ev.params, 3)
		rm.SquareScaleRound(ct.Polys[0], ct.Polys[1],
			out.Polys[0], out.Polys[1], out.Polys[2])
		return out, nil
	}
	r := ev.params.Ring()
	t := ev.params.T
	q := ev.params.Q
	c0 := r.GetCentered()
	c1 := r.GetCentered()
	defer func() {
		r.PutCentered(c0)
		r.PutCentered(c1)
	}()
	r.CenteredInto(ct.Polys[0], c0)
	r.CenteredInto(ct.Polys[1], c1)
	out := NewCiphertext(ev.params, 3)
	v00 := ring.NegacyclicConvolveInt(c0, c0)
	cross := ring.NegacyclicConvolveInt(c0, c1)
	v11 := ring.NegacyclicConvolveInt(c1, c1)
	for k := range v00 {
		out.Polys[0].Coeffs[k] = v00[k].ScaleRoundMod(t, q, q)
		out.Polys[1].Coeffs[k] = cross[k].Add(cross[k]).ScaleRoundMod(t, q, q)
		out.Polys[2].Coeffs[k] = v11[k].ScaleRoundMod(t, q, q)
	}
	return out, nil
}

// Relinearize reduces a size-3 ciphertext to size 2 using evaluation keys:
// c2 is decomposed in base w and folded through the keys, trading ciphertext
// size for a small additive noise term. Size-2 inputs pass through unchanged.
func (ev *Evaluator) Relinearize(ct *Ciphertext, ek *EvaluationKeys) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if ct.Size() == 2 {
		return ct.Copy(), nil
	}
	if err := checkCoeff("Relinearize", ct); err != nil {
		return nil, err
	}
	if ek == nil || !ek.Params.Equal(ev.params) {
		return nil, fmt.Errorf("he: missing or mismatched evaluation keys")
	}
	r := ev.params.Ring()
	digits := ev.params.DecompDigits()
	if len(ek.K0) < digits {
		return nil, fmt.Errorf("he: evaluation keys have %d digits, need %d", len(ek.K0), digits)
	}
	out := NewCiphertext(ev.params, 2)
	ct.Polys[0].CopyTo(out.Polys[0])
	ct.Polys[1].CopyTo(out.Polys[1])

	// Decompose c2 into base-w digits: c2 = sum_i digit_i * w^i. Each digit
	// is transformed once and folded through both key components with the
	// fused Shoup multiply-accumulate (tables precomputed lazily on the
	// keys), so the loop body is one NTT plus two MulShoup MAC passes —
	// pooled scratch, no per-digit allocation.
	k0Shoup, k1Shoup := ek.shoupTables(r)
	mask := (uint64(1) << uint(ev.params.DecompBaseBits)) - 1
	shift := uint(ev.params.DecompBaseBits)
	digitPoly := r.GetPoly()
	acc0 := r.GetPoly()
	acc1 := r.GetPoly()
	acc0.Zero()
	acc1.Zero()
	for i := 0; i < digits; i++ {
		for j, c := range ct.Polys[2].Coeffs {
			digitPoly.Coeffs[j] = (c >> (uint(i) * shift)) & mask
		}
		r.NTT(digitPoly)
		r.MulCoeffsShoupAdd(digitPoly, ek.K0[i], k0Shoup[i], acc0)
		r.MulCoeffsShoupAdd(digitPoly, ek.K1[i], k1Shoup[i], acc1)
	}
	r.INTT(acc0)
	r.INTT(acc1)
	r.Add(out.Polys[0], acc0, out.Polys[0])
	r.Add(out.Polys[1], acc1, out.Polys[1])
	r.PutPoly(digitPoly)
	r.PutPoly(acc0)
	r.PutPoly(acc1)
	return out, nil
}

// MulRelin multiplies and immediately relinearizes, the common composition
// in pure-HE inference.
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext, ek *EvaluationKeys) (*Ciphertext, error) {
	prod, err := ev.Mul(ct0, ct1)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(prod, ek)
}

// AddMany sums a non-empty slice of ciphertexts.
func (ev *Evaluator) AddMany(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) == 0 {
		return nil, fmt.Errorf("he: AddMany of empty slice")
	}
	acc := cts[0].Copy()
	var err error
	for _, ct := range cts[1:] {
		acc, err = ev.Add(acc, ct)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MulScalar multiplies a ciphertext by a small integer constant (mod T) by
// scaling every component; this is cheaper than MulPlain for scalars.
// Scalar multiplication is pointwise in either domain.
func (ev *Evaluator) MulScalar(ct *Ciphertext, k uint64) (*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	r := ev.params.Ring()
	lifted := ev.params.LiftCentered(k % ev.params.T)
	out := NewCiphertext(ev.params, ct.Size())
	out.Form = ct.Form
	for i := range ct.Polys {
		r.MulScalar(ct.Polys[i], lifted, out.Polys[i])
	}
	return out, nil
}

// weightedSumChunk bounds the terms WeightedSumInto hands the ring kernel per
// call, so its per-call operand lists live on the stack.
const weightedSumChunk = 64

// WeightedSumInto computes acc += Σ ws[i]·cts[i] in place — the weighted sum
// of every plaintext-weight linear layer, one call per output. Each weight is
// taken mod t and centred, exactly as LiftCentered(EncodeValue(w)) lifts it,
// and every component is summed by the ring's lazy-reduction kernel, so the
// result is the residue a term-by-term multiply-accumulate chain produces.
// acc and every cts[i] must have the same size and form; an empty term list
// leaves acc unchanged.
func (ev *Evaluator) WeightedSumInto(acc *Ciphertext, cts []*Ciphertext, ws []int64) error {
	if err := ev.check(acc); err != nil {
		return err
	}
	if len(cts) != len(ws) {
		return fmt.Errorf("he: WeightedSumInto has %d ciphertexts but %d weights", len(cts), len(ws))
	}
	for _, ct := range cts {
		if err := ev.check(ct); err != nil {
			return err
		}
		if acc.Form != ct.Form {
			return fmt.Errorf("he: WeightedSumInto form mismatch (%v vs %v)", acc.Form, ct.Form)
		}
		if acc.Size() != ct.Size() {
			return fmt.Errorf("he: WeightedSumInto size mismatch %d vs %d", acc.Size(), ct.Size())
		}
	}
	r := ev.params.Ring()
	t := int64(ev.params.T)
	var (
		as      [weightedSumChunk]ring.Poly
		centred [weightedSumChunk]int64
	)
	for lo := 0; lo < len(cts); lo += weightedSumChunk {
		chunk := cts[lo:min(lo+weightedSumChunk, len(cts))]
		for k, w := range ws[lo : lo+len(chunk)] {
			c := w % t
			if c < 0 {
				c += t
			}
			if c > t/2 {
				c -= t
			}
			centred[k] = c
		}
		for i := range acc.Polys {
			for k, ct := range chunk {
				as[k] = ct.Polys[i]
			}
			r.WeightedSumInto(acc.Polys[i], as[:len(chunk)], centred[:len(chunk)])
		}
	}
	return nil
}

// MulMonomialAddInto computes acc += X^k·ct in place for 0 ≤ k < n: both
// polynomials of ct are shifted negacyclically, which needs no key and no
// transform and leaves the noise norm of ct unchanged (a signed permutation
// of its coefficients). Plaintext coefficient j of ct lands on j+k, negated
// when it wraps past n. The engine uses it to fold scalar ciphertexts — value
// at coefficient 0 — into coefficient-packed ones. A monomial is a pointwise
// vector in evaluation form, not a shift, so both operands must be in
// coefficient form.
func (ev *Evaluator) MulMonomialAddInto(acc, ct *Ciphertext, k int) error {
	if err := ev.check(acc, ct); err != nil {
		return err
	}
	if err := checkCoeff("MulMonomialAddInto", acc, ct); err != nil {
		return err
	}
	if acc.Size() != ct.Size() {
		return fmt.Errorf("he: MulMonomialAddInto size mismatch %d vs %d", acc.Size(), ct.Size())
	}
	if k < 0 || k >= ev.params.N {
		return fmt.Errorf("he: monomial degree %d outside [0, %d)", k, ev.params.N)
	}
	r := ev.params.Ring()
	for i := range ct.Polys {
		r.MulMonomialAdd(ct.Polys[i], k, acc.Polys[i])
	}
	return nil
}
