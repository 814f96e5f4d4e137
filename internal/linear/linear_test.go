package linear

import (
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// TestKernels runs each kernel under the two kinds of parameter set its
// callers use — the hybrid engine's (large power-of-two t) and one CRT modulus
// of the pure-HE baseline (small prime t, fine relinearization base) — and
// checks that the outputs decrypt to the plaintext reference and that the
// worker count does not change a single coefficient. The layers include an
// output whose weights are all zero (no term ever starts the accumulator) and
// the k = 1 window (outputs alias inputs).
func TestKernels(t *testing.T) {
	const n, c, h, w = 1024, 2, 4, 4
	q, err := ring.GenerateNTTPrime(46, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name           string
		t              uint64
		decompBaseBits int
	}{
		{"hybrid", 1 << 20, he.DefaultDecompositionBase},
		{"cryptonets-modulus", 113, 8},
	} {
		t.Run(set.name, func(t *testing.T) {
			params, err := he.NewParameters(n, q, set.t, set.decompBaseBits)
			if err != nil {
				t.Fatal(err)
			}
			kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(1))
			if err != nil {
				t.Fatal(err)
			}
			sk, pk := kg.GenKeyPair()
			encryptor, err := he.NewEncryptor(pk, ring.NewSeededSource(2))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := he.NewDecryptor(sk)
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

			// Values, weights and biases in [-2, 2]: the largest weighted sum
			// (8 conv taps or 8 FC inputs of magnitude 4, plus a bias) stays
			// below 113/2.
			rng := mrand.New(mrand.NewPCG(3, 4))
			small := func(count int) []int64 {
				out := make([]int64, count)
				for i := range out {
					out[i] = rng.Int64N(5) - 2
				}
				return out
			}
			vals := small(c * h * w)
			in := make([]*he.Ciphertext, len(vals))
			for i, v := range vals {
				if in[i], err = encryptor.Encrypt(enc.Encode(v)); err != nil {
					t.Fatal(err)
				}
			}
			conv := &nn.QuantizedConv{InC: c, OutC: 3, K: 2, Stride: 1, W: small(3 * c * 2 * 2), B: small(3)}
			clear(conv.W[2*c*2*2:]) // output channel 2: all-zero weights
			fc := &nn.QuantizedFC{In: 8, Out: 3, W: small(3 * 8), B: small(3)}
			clear(fc.W[8:16]) // output 1: all-zero weights

			convWant, _, _, err := conv.Forward(vals, h, w)
			if err != nil {
				t.Fatal(err)
			}
			fcWant, err := fc.Forward(vals[:fc.In])
			if err != nil {
				t.Fatal(err)
			}
			sumWant := make([]int64, c*(h/2)*(w/2))
			for i := range sumWant {
				ch, oy, ox := i/4, i%4/2, i%2
				for ky := 0; ky < 2; ky++ {
					for kx := 0; kx < 2; kx++ {
						sumWant[i] += vals[(ch*h+oy*2+ky)*w+ox*2+kx]
					}
				}
			}

			for _, k := range []struct {
				name string
				run  func(workers int) ([]*he.Ciphertext, error)
				want []int64
			}{
				{"conv", func(workers int) ([]*he.Ciphertext, error) {
					out, _, _, err := Conv(eval, conv, EncodeBias(enc, conv.B), in, c, h, w, workers)
					return out, err
				}, convWant},
				{"fc", func(workers int) ([]*he.Ciphertext, error) {
					return FC(eval, fc, EncodeBias(enc, fc.B), in[:fc.In], workers)
				}, fcWant},
				{"window-sum", func(workers int) ([]*he.Ciphertext, error) {
					out, _, _, err := WindowSum(eval, in, c, h, w, 2, workers)
					return out, err
				}, sumWant},
				{"window-sum-k1", func(workers int) ([]*he.Ciphertext, error) {
					out, _, _, err := WindowSum(eval, in, c, h, w, 1, workers)
					for i := range out {
						if out[i] != in[i] {
							t.Errorf("k=1 output %d does not alias its input", i)
						}
					}
					return out, err
				}, vals},
			} {
				seq, err := k.run(1)
				if err != nil {
					t.Fatalf("%s: %v", k.name, err)
				}
				par, err := k.run(4)
				if err != nil {
					t.Fatalf("%s workers=4: %v", k.name, err)
				}
				if len(seq) != len(k.want) || len(par) != len(k.want) {
					t.Fatalf("%s: %d / %d outputs, want %d", k.name, len(seq), len(par), len(k.want))
				}
				for i, ct := range seq {
					for j := range ct.Polys {
						if !ct.Polys[j].Equal(par[i].Polys[j]) {
							t.Fatalf("%s output %d: workers=4 differs from workers=1", k.name, i)
						}
					}
					pt, err := dec.Decrypt(ct)
					if err != nil {
						t.Fatal(err)
					}
					if got := enc.Decode(pt); got != k.want[i] {
						t.Fatalf("%s output %d: decrypted %d, reference %d", k.name, i, got, k.want[i])
					}
				}
			}
		})
	}
}
