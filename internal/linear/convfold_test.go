package linear

import (
	"fmt"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// foldOutputs is the two-step route ConvFold replaces: Conv's outputs folded
// g to a ciphertext, acc += X^(j mod g)·out_j into ciphertext j div g.
func foldOutputs(t *testing.T, eval *he.Evaluator, params he.Parameters, outs []*he.Ciphertext, g int) []*he.Ciphertext {
	t.Helper()
	folded := make([]*he.Ciphertext, (len(outs)+g-1)/g)
	for j, ct := range outs {
		if folded[j/g] == nil {
			folded[j/g] = he.NewCiphertext(params, ct.Size())
		}
		if err := eval.MulMonomialAddInto(folded[j/g], ct, j%g); err != nil {
			t.Fatal(err)
		}
	}
	return folded
}

// foldSetup returns hybrid-style parameters (power-of-two t) of degree n with
// their evaluator and scalar encoder.
func foldSetup(t *testing.T, n int) (he.Parameters, *he.Evaluator, *encoding.ScalarEncoder) {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, n)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(n, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.NewScalarEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	return params, eval, enc
}

// TestConvFoldMatchesConvThenFold is the kernel's contract: over seeded
// random convs — InC 1–3, K 1–5, stride 1–2, OutC 1–6, non-square maps,
// weights zero, small, negative and far above the weighted-sum kernel's run
// mass — and g ∈ {1, 2, 7, a g that divides no map here, n}, every crossing
// ciphertext equals Conv-then-fold coefficient for coefficient, at any
// worker count. The inputs are uniform residues: the arithmetic does not
// care what they decrypt to.
func TestConvFoldMatchesConvThenFold(t *testing.T) {
	const n = 256
	params, eval, enc := foldSetup(t, n)
	sampler := ring.NewSampler(params.Ring(), ring.NewSeededSource(5))
	rng := mrand.New(mrand.NewPCG(41, 43))
	tm := int64(params.T)
	weight := func() int64 {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return rng.Int64N(7) - 3
		default:
			// Up to ±3t: far past the run mass ⌊(2⁶⁴−1)/q⌋ − 1 ≈ 2¹⁸.
			return rng.Int64N(6*tm+1) - 3*tm
		}
	}
	for trial := range 24 {
		inC, k, stride, outC := 1+rng.IntN(3), 1+rng.IntN(5), 1+rng.IntN(2), 1+rng.IntN(6)
		h, w := k+rng.IntN(6), k+rng.IntN(6)
		conv := &nn.QuantizedConv{InC: inC, OutC: outC, K: k, Stride: stride,
			W: make([]int64, outC*inC*k*k), B: make([]int64, outC)}
		for i := range conv.W {
			conv.W[i] = weight()
		}
		for i := range conv.B {
			conv.B[i] = weight()
		}
		if trial%3 == 0 {
			clear(conv.W[:inC*k*k]) // output channel 0: all-zero weights
		}
		bias := EncodeBias(enc, conv.B)
		in := make([]*he.Ciphertext, inC*h*w)
		for i := range in {
			in[i] = he.NewCiphertext(params, 2)
			for _, p := range in[i].Polys {
				sampler.Uniform(p)
			}
		}
		outs, _, _, err := Conv(eval, conv, bias, in, inC, h, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []int{1, 2, 7, 97, n} {
			name := fmt.Sprintf("trial%d/in%d_k%d_s%d_out%d_%dx%d/g%d", trial, inC, k, stride, outC, h, w, g)
			want := foldOutputs(t, eval, params, outs, g)
			tab, err := NewConvFold(eval, conv, bias, inC, h, w, g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, workers := range []int{1, 3} {
				got, err := tab.Run(eval, in, workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d crossing ciphertexts, want %d", name, len(got), len(want))
				}
				for o := range want {
					if got[o].Form != he.CoeffForm {
						t.Fatalf("%s: crossing %d left in %v form", name, o, got[o].Form)
					}
					for i := range want[o].Polys {
						if !got[o].Polys[i].Equal(want[o].Polys[i]) {
							t.Fatalf("%s workers=%d: crossing %d component %d differs from conv-then-fold", name, workers, o, i)
						}
					}
				}
			}
		}
	}
}

// TestConvFoldRefuses: geometry and bias the table cannot fold are typed
// errors, before any ciphertext is touched.
func TestConvFoldRefuses(t *testing.T) {
	_, eval, enc := foldSetup(t, 256)
	conv := &nn.QuantizedConv{InC: 1, OutC: 2, K: 3, Stride: 1, W: make([]int64, 18), B: []int64{1, 2}}
	bias := EncodeBias(enc, conv.B)
	shifted := []*he.Plaintext{bias[0], bias[1].Copy()}
	shifted[1].Poly.Coeffs[1] = 1
	for _, c := range []struct {
		name    string
		bias    []*he.Plaintext
		c, h, w int
		g       int
	}{
		{"channels", bias, 2, 5, 5, 4},
		{"kernel exceeds map", bias, 1, 2, 5, 4},
		{"bias count", bias[:1], 1, 5, 5, 4},
		{"g zero", bias, 1, 5, 5, 0},
		{"g above n", bias, 1, 5, 5, 257},
		{"non-constant bias", shifted, 1, 5, 5, 4},
	} {
		if _, err := NewConvFold(eval, conv, c.bias, c.c, c.h, c.w, c.g); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	tab, err := NewConvFold(eval, conv, bias, 1, 5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Run(eval, make([]*he.Ciphertext, 24), 1); err == nil {
		t.Error("short input map accepted")
	}
}
