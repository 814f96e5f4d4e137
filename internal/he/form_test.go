package he

import (
	"bytes"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/ring"
)

// Tests for ciphertext domain-form tracking: conversions round-trip,
// coefficient-only operations fail loudly on evaluation-form inputs, and the
// NTT-resident fused kernels are bit-identical to the coefficient reference.

func TestToNTTToCoeffRoundTrip(t *testing.T) {
	tc := newTestContext(t, 100)
	ct, err := tc.enc.EncryptScalar(123)
	if err != nil {
		t.Fatal(err)
	}
	orig := ct.Copy()
	ct.ToNTT()
	if ct.Form != NTTForm {
		t.Fatalf("form after ToNTT = %v", ct.Form)
	}
	for i := range ct.Polys {
		if ct.Polys[i].Equal(orig.Polys[i]) {
			t.Fatalf("poly %d unchanged by ToNTT", i)
		}
	}
	// Converting an already-converted ciphertext is a no-op.
	snapshot := ct.Copy()
	ct.ToNTT()
	for i := range ct.Polys {
		if !ct.Polys[i].Equal(snapshot.Polys[i]) {
			t.Fatalf("double ToNTT mutated poly %d", i)
		}
	}
	ct.ToCoeff()
	if ct.Form != CoeffForm {
		t.Fatalf("form after ToCoeff = %v", ct.Form)
	}
	for i := range ct.Polys {
		if !ct.Polys[i].Equal(orig.Polys[i]) {
			t.Fatalf("poly %d does not round-trip", i)
		}
	}
	ct.ToCoeff()
	for i := range ct.Polys {
		if !ct.Polys[i].Equal(orig.Polys[i]) {
			t.Fatalf("double ToCoeff mutated poly %d", i)
		}
	}
}

func TestCopyPreservesForm(t *testing.T) {
	tc := newTestContext(t, 101)
	ct, err := tc.enc.EncryptScalar(7)
	if err != nil {
		t.Fatal(err)
	}
	ct.ToNTT()
	cp := ct.Copy()
	if cp.Form != NTTForm {
		t.Fatalf("Copy dropped form: %v", cp.Form)
	}
}

func TestSerializeNTTFormFailsLoudly(t *testing.T) {
	tc := newTestContext(t, 102)
	ct, err := tc.enc.EncryptScalar(9)
	if err != nil {
		t.Fatal(err)
	}
	ct.ToNTT()
	var buf bytes.Buffer
	if err := ct.Write(&buf); err == nil {
		t.Fatal("Write accepted an NTT-form ciphertext")
	}
	if buf.Len() != 0 {
		t.Fatalf("Write emitted %d bytes before failing", buf.Len())
	}
	if _, err := MarshalCiphertext(ct); err == nil {
		t.Fatal("MarshalCiphertext accepted an NTT-form ciphertext")
	}
	ct.ToCoeff()
	if err := ct.Write(&buf); err != nil {
		t.Fatalf("Write after ToCoeff: %v", err)
	}
}

func TestDecryptNTTFormFailsLoudly(t *testing.T) {
	tc := newTestContext(t, 103)
	ct, err := tc.enc.EncryptScalar(42)
	if err != nil {
		t.Fatal(err)
	}
	ct.ToNTT()
	if _, err := tc.dec.Decrypt(ct); err == nil {
		t.Fatal("Decrypt accepted an NTT-form ciphertext")
	}
	if _, err := tc.dec.NoiseBudget(ct); err == nil {
		t.Fatal("NoiseBudget accepted an NTT-form ciphertext")
	}
	ct.ToCoeff()
	pt, err := tc.dec.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Poly.Coeffs[0] != 42 {
		t.Fatalf("round-tripped value %d, want 42", pt.Poly.Coeffs[0])
	}
}

func TestCoeffOnlyOpsRejectNTTForm(t *testing.T) {
	tc := newTestContext(t, 104)
	a, _ := tc.enc.EncryptScalar(2)
	b, _ := tc.enc.EncryptScalar(3)
	a.ToNTT()
	if _, err := tc.eval.Mul(a, b); err == nil {
		t.Fatal("Mul accepted an NTT-form operand")
	}
	if _, err := tc.eval.Square(a); err == nil {
		t.Fatal("Square accepted an NTT-form operand")
	}
	if _, err := tc.eval.Add(a, b); err == nil {
		t.Fatal("Add accepted mixed-form operands")
	}
	if err := tc.eval.WeightedSumInto(b, []*Ciphertext{a}, []int64{5}); err == nil {
		t.Fatal("WeightedSumInto accepted mixed-form operands")
	}
	if err := tc.eval.MulPlainOperandAddInto(a, b, mustOperand(t, tc, 1)); err == nil {
		t.Fatal("MulPlainOperandAddInto accepted a coefficient-form ct")
	}
}

func mustOperand(t *testing.T, tc *testContext, seed uint64) *PlainOperand {
	t.Helper()
	rng := mrand.New(mrand.NewPCG(seed, seed))
	pt := NewPlaintext(tc.params)
	for i := range pt.Poly.Coeffs[:16] {
		pt.Poly.Coeffs[i] = rng.Uint64() % tc.params.T
	}
	op, err := tc.eval.PrepareOperand(pt)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestFusedAccumulateMatchesReference is the kernel-level equivalence
// property: for random ciphertexts and operands, hoisting to NTT form,
// accumulating with MulPlainOperandAddInto, and inverse-transforming once
// yields the exact polynomials of the coefficient path (per-product
// MulPlainOperand + Add). The two differ only in where the (linear) inverse
// NTT sits.
func TestFusedAccumulateMatchesReference(t *testing.T) {
	tc := newTestContext(t, 105)
	rng := mrand.New(mrand.NewPCG(105, 105))
	const terms = 7
	cts := make([]*Ciphertext, terms)
	ops := make([]*PlainOperand, terms)
	for i := range cts {
		ct, err := tc.enc.EncryptScalar(rng.Uint64() % tc.params.T)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
		ops[i] = mustOperand(t, tc, uint64(200+i))
	}

	// Coefficient reference: per-product NTT round trips, coeff-domain adds.
	var ref *Ciphertext
	for i := range cts {
		term, err := tc.eval.MulPlainOperand(cts[i], ops[i])
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = term
		} else if ref, err = tc.eval.Add(ref, term); err != nil {
			t.Fatal(err)
		}
	}

	// NTT-resident: hoist once, fuse all products, one inverse transform.
	acc := NewCiphertext(tc.params, cts[0].Size())
	acc.Form = NTTForm
	for i := range cts {
		ct := cts[i].Copy()
		ct.ToNTT()
		if err := tc.eval.MulPlainOperandAddInto(acc, ct, ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	acc.ToCoeff()

	for i := range ref.Polys {
		if !acc.Polys[i].Equal(ref.Polys[i]) {
			t.Fatalf("fused poly %d differs from reference", i)
		}
	}
}

// TestAddPlainIntoNTTForm checks the bias add is domain-transparent: adding
// a plaintext to an NTT-form accumulator then converting down equals the
// coefficient-domain AddPlain bit for bit.
func TestAddPlainIntoNTTForm(t *testing.T) {
	tc := newTestContext(t, 106)
	ct, err := tc.enc.EncryptScalar(19)
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPlaintext(tc.params)
	pt.Poly.Coeffs[0] = 88

	ref, err := tc.eval.AddPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}

	got := ct.Copy()
	got.ToNTT()
	if err := tc.eval.AddPlainInto(got, pt); err != nil {
		t.Fatal(err)
	}
	got.ToCoeff()
	for i := range ref.Polys {
		if !got.Polys[i].Equal(ref.Polys[i]) {
			t.Fatalf("NTT-form AddPlainInto poly %d differs from AddPlain", i)
		}
	}

	// And the decrypted sum is right.
	dec, err := tc.dec.Decrypt(got)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Poly.Coeffs[0] != (19+88)%tc.params.T {
		t.Fatalf("decrypted %d, want %d", dec.Poly.Coeffs[0], (19+88)%tc.params.T)
	}
}

// TestMulPlainOperandNTTFormStaysResident checks the pointwise product path:
// multiplying an NTT-form ciphertext yields an NTT-form result equal (after
// conversion) to the coefficient-path product.
func TestMulPlainOperandNTTFormStaysResident(t *testing.T) {
	tc := newTestContext(t, 107)
	ct, err := tc.enc.EncryptScalar(33)
	if err != nil {
		t.Fatal(err)
	}
	op := mustOperand(t, tc, 300)
	ref, err := tc.eval.MulPlainOperand(ct, op)
	if err != nil {
		t.Fatal(err)
	}
	resident := ct.Copy()
	resident.ToNTT()
	got, err := tc.eval.MulPlainOperand(resident, op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Form != NTTForm {
		t.Fatalf("product of NTT-form input has form %v", got.Form)
	}
	got.ToCoeff()
	for i := range ref.Polys {
		if !got.Polys[i].Equal(ref.Polys[i]) {
			t.Fatalf("resident product poly %d differs", i)
		}
	}
}

// TestAddPlainIntoMatchesDenseScaling pins the bias add, in both forms, to
// the dense construction it replaces in coefficient form: Δ·m built over all
// n coefficients, transformed for an NTT-form ciphertext, then added to c0.
// Plaintexts range from the scalar bias (one coefficient) to fully dense.
func TestAddPlainIntoMatchesDenseScaling(t *testing.T) {
	tc := newTestContext(t, 107)
	r := tc.params.Ring()
	src := ring.NewSeededSource(107)
	for _, nonzero := range []int{0, 1, 8, tc.params.N} {
		pt := randomPlaintext(tc, src, nonzero)
		pt.Poly.Coeffs[0] = tc.params.T - 1 // the most negative scalar bias
		for _, form := range []Form{CoeffForm, NTTForm} {
			ct, err := tc.enc.Encrypt(randomPlaintext(tc, src, 8))
			if err != nil {
				t.Fatal(err)
			}
			if form == NTTForm {
				ct.ToNTT()
			}
			want := ct.Copy()
			dm := r.NewPoly()
			r.MulScalar(pt.Poly, tc.params.Delta(), dm)
			if form == NTTForm {
				r.NTT(dm)
			}
			r.Add(want.Polys[0], dm, want.Polys[0])

			if err := tc.eval.AddPlainInto(ct, pt); err != nil {
				t.Fatal(err)
			}
			for i := range want.Polys {
				if !ct.Polys[i].Equal(want.Polys[i]) {
					t.Fatalf("%d non-zero coefficients, %v form: poly %d differs from the dense add", nonzero, form, i)
				}
			}
		}
	}
}
