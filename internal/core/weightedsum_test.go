package core

import (
	"fmt"
	"math"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// perTermChain is the multiply-accumulate chain the weighted-sum kernel
// replaced, on coefficient-form ciphertexts: bias + Σ w·ct with one fully
// reduced ring.MulScalarAdd per non-zero weight (each weight lifted as
// LiftCentered(w mod t)), then Δ·bias built over all n coefficients and
// added to c0.
func perTermChain(params he.Parameters, cts []*he.Ciphertext, ws []int64, bias *he.Plaintext) *he.Ciphertext {
	r := params.Ring()
	acc := he.NewCiphertext(params, cts[0].Size())
	tm := int64(params.T)
	for k, w := range ws {
		if w == 0 {
			continue
		}
		lifted := params.LiftCentered(uint64((w%tm + tm) % tm))
		for i := range acc.Polys {
			r.MulScalarAdd(cts[k].Polys[i], lifted, acc.Polys[i])
		}
	}
	dm := r.NewPoly()
	r.MulScalar(bias.Poly, params.Delta(), dm)
	r.Add(acc.Polys[0], dm, acc.Polys[0])
	return acc
}

// uniformCiphertexts returns count size-2 ciphertexts cycling through
// distinct ones whose coefficients are uniform in [0, q) — the kernel's
// arithmetic does not care what they decrypt to, and uniform residues reach
// the extremes encryptions rarely do. Aliasing keeps n=8192 layers small.
func uniformCiphertexts(params he.Parameters, count, distinct int, seed uint64) []*he.Ciphertext {
	s := ring.NewSampler(params.Ring(), ring.NewSeededSource(seed))
	pool := make([]*he.Ciphertext, distinct)
	for i := range pool {
		pool[i] = he.NewCiphertext(params, 2)
		for _, p := range pool[i].Polys {
			s.Uniform(p)
		}
	}
	out := make([]*he.Ciphertext, count)
	for i := range out {
		out[i] = pool[i%distinct]
	}
	return out
}

func assertSameCiphertext(t *testing.T, what string, got, want *he.Ciphertext) {
	t.Helper()
	if got.Form != want.Form || got.Size() != want.Size() {
		t.Fatalf("%s: form/size %v/%d, chain gives %v/%d", what, got.Form, got.Size(), want.Form, want.Size())
	}
	for i := range want.Polys {
		if !got.Polys[i].Equal(want.Polys[i]) {
			t.Fatalf("%s: component %d differs from the per-term chain", what, i)
		}
	}
}

// TestPaperLinearLayersMatchPerTermChain pins every plaintext-weight MAC the
// engine runs on the paper model — scalar linear.Conv and linear.FC, and the
// rotation-packed conv's tap sums — to the per-term chain, coefficient for
// coefficient, at both parameter tiers. At n=8192 the scalar conv runs on a
// 12×12 crop of the input map (every kernel tap still in play) to keep the
// output map small.
func TestPaperLinearLayersMatchPerTermChain(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-size layer equivalence skipped in short mode and under -race")
	}
	for _, n := range []int{2048, 8192} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			s := newFusedStack(t, n)
			e, err := newHybridEngine(s.svc, nn.PaperCNN(mrand.New(mrand.NewPCG(7, 11))), packedTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EncodeWeights(); err != nil {
				t.Fatal(err)
			}
			if info := e.PackedInfo(); !info.Active {
				t.Fatalf("packed conv not planned: %+v", info)
			}
			conv, fc := e.steps[0], e.steps[len(e.steps)-1]
			if conv.kind != stepConv || fc.kind != stepFC {
				t.Fatalf("paper plan starts with step %v and ends with %v", conv.kind, fc.kind)
			}
			q := conv.conv
			side := 28
			if n > 2048 {
				side = 12
			}

			in := uniformCiphertexts(e.params, side*side, 97, uint64(n))
			out, oh, ow, err := linear.Conv(e.eval, q, conv.bias, in, 1, side, side, 2)
			if err != nil {
				t.Fatal(err)
			}
			ws := make([]int64, q.K*q.K)
			cts := make([]*he.Ciphertext, q.K*q.K)
			for idx, got := range out {
				o, oy, ox := idx/(oh*ow), idx%(oh*ow)/ow, idx%ow
				for ky := 0; ky < q.K; ky++ {
					for kx := 0; kx < q.K; kx++ {
						cts[ky*q.K+kx] = in[(oy+ky)*side+ox+kx]
						ws[ky*q.K+kx] = q.WAt(o, 0, ky, kx)
					}
				}
				assertSameCiphertext(t, fmt.Sprintf("conv output %d", idx), got, perTermChain(e.params, cts, ws, conv.bias[o]))
			}

			in = uniformCiphertexts(e.params, fc.fc.In, 89, uint64(n)+1)
			fcOut, err := linear.FC(e.eval, fc.fc, fc.bias, in, 1)
			if err != nil {
				t.Fatal(err)
			}
			for o, got := range fcOut {
				assertSameCiphertext(t, fmt.Sprintf("fc output %d", o), got, perTermChain(e.params, in, fc.fc.W[o*fc.fc.In:(o+1)*fc.fc.In], fc.bias[o]))
			}

			gk, err := e.galoisKeysFor(28)
			if err != nil {
				t.Fatal(err)
			}
			in = uniformCiphertexts(e.params, 1, 1, uint64(n)+2)
			packed, _, _, err := e.runPackedConv(conv, in, 28, 28, 28, gk)
			if err != nil {
				t.Fatal(err)
			}
			var taps []int
			for ky := 0; ky < q.K; ky++ {
				for kx := 0; kx < q.K; kx++ {
					taps = append(taps, ky*28+kx)
				}
			}
			rots, err := e.eval.RotateHoisted(in[0], taps, gk)
			if err != nil {
				t.Fatal(err)
			}
			for o, got := range packed {
				assertSameCiphertext(t, fmt.Sprintf("packed conv channel %d", o), got, perTermChain(e.params, rots, q.W[o*len(taps):(o+1)*len(taps)], conv.bias[o]))
			}
		})
	}
}

// TestMultiRunWeightedSumsMatchReference scales a small network's weights
// until its conv kernel ℓ1 and FC row ℓ1 exceed the ring's run mass, so every
// output's weighted sum spans several lazily reduced runs, and checks the
// encrypted logits against the plaintext integer pipeline at both tiers
// (run mass ⌊(2⁶⁴−1)/q⌋ − 1: 255 for the 56-bit n=2048 modulus, 63 for the
// 58-bit n=8192 one).
func TestMultiRunWeightedSumsMatchReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("n=8192 inference skipped in short mode and under -race")
	}
	for _, n := range []int{2048, 8192} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			s := newFusedStack(t, n)
			mass := int64(math.MaxUint64/s.svc.Params().Q - 1) // the ring kernel's run mass
			r := mrand.New(mrand.NewPCG(uint64(n), 17))
			model := fusedNet(r, nn.Sigmoid, nn.MeanPool, 2)
			var e *HybridEngine
			for scale := 1.0; ; scale *= 2 {
				var err error
				if e, err = newHybridEngine(s.svc, model, fusedConfig(PoolAuto)); err != nil {
					t.Fatalf("weights ×%g: %v", scale, err)
				}
				conv, fc := e.steps[0].conv, e.steps[len(e.steps)-1].fc
				if conv.MaxKernelL1() > mass && fc.MaxRowL1() > mass {
					t.Logf("weights ×%g: conv kernel ℓ1 %d, fc row ℓ1 %d, run mass %d", scale, conv.MaxKernelL1(), fc.MaxRowL1(), mass)
					break
				}
				for _, l := range model.Layers {
					switch v := l.(type) {
					case *nn.Conv2D:
						scaleParam(v.Weight, 2)
					case *nn.FullyConnected:
						scaleParam(v.Weight, 2)
					}
				}
			}
			img := randomImage(r, 1, 14, 14)
			ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := s.inferCounted(t, e, ci)
			want, err := e.ReferenceForward(img)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[0][i] != want[i] {
					t.Fatalf("logit %d: encrypted %d != reference %d", i, got[0][i], want[i])
				}
			}
		})
	}
}

func scaleParam(p *nn.Param, f float64) {
	for i := range p.W.Data {
		p.W.Data[i] *= f
	}
}
