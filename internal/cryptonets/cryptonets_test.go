package cryptonets

import (
	"fmt"
	"math"
	mrand "math/rand/v2"
	"slices"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// testConfig is a small, fast configuration for the tiny test CNN.
func testConfig() Config {
	return Config{
		N:              512,
		QBits:          46,
		DecompBaseBits: 8,
		Moduli:         []uint64{113, 127, 131, 137},
		PixelScale:     8,
		WeightScale:    8,
	}
}

func tinyCryptoNet(seed uint64) *nn.Network {
	r := mrand.New(mrand.NewPCG(seed, seed^3))
	return nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Square),
		nn.NewPool2D(nn.SumPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
}

func tinyImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed^4))
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

func TestConfigParameters(t *testing.T) {
	cfg := testConfig()
	params, err := cfg.Parameters()
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 4 {
		t.Fatalf("got %d parameter sets", len(params))
	}
	for i, p := range params {
		if p.T != cfg.Moduli[i] {
			t.Fatalf("params %d has t=%d", i, p.T)
		}
	}
}

func TestConfigRejectsNonCoprimeModuli(t *testing.T) {
	cfg := testConfig()
	cfg.Moduli = []uint64{6, 9}
	if _, err := cfg.Parameters(); err == nil {
		t.Fatal("non-coprime moduli accepted")
	}
	cfg.Moduli = nil
	if _, err := cfg.Parameters(); err == nil {
		t.Fatal("empty moduli accepted")
	}
}

func TestCRTReconstruct(t *testing.T) {
	ms := []uint64{3, 5, 7}
	tests := []int64{0, 1, -1, 17, -17, 52, -52}
	for _, want := range tests {
		rs := make([]uint64, len(ms))
		for i, m := range ms {
			r := want % int64(m)
			if r < 0 {
				r += int64(m)
			}
			rs[i] = uint64(r)
		}
		got, err := crtReconstruct(rs, ms)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CRT(%d) = %d", want, got)
		}
	}
}

func TestGenerateKeys(t *testing.T) {
	cfg := testConfig()
	kb, ek, err := GenerateKeys(cfg, ring.NewSeededSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(kb.SKs) != 4 || len(kb.PKs) != 4 || len(ek.EKs) != 4 {
		t.Fatal("wrong key counts")
	}
}

func TestEngineValidatesModel(t *testing.T) {
	cfg := testConfig()
	_, ek, err := GenerateKeys(cfg, ring.NewSeededSource(2))
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(9, 9))

	sigmoidModel := nn.NewNetwork(nn.NewConv2D(1, 1, 3, 1, r), nn.NewActivation(nn.Sigmoid))
	if _, err := NewEngine(sigmoidModel, cfg, ek); err == nil {
		t.Fatal("Sigmoid accepted by pure-HE engine")
	}
	meanModel := nn.NewNetwork(nn.NewConv2D(1, 1, 3, 1, r), nn.NewPool2D(nn.MeanPool, 2))
	if _, err := NewEngine(meanModel, cfg, ek); err == nil {
		t.Fatal("MeanPool accepted by pure-HE engine")
	}
	if _, err := NewEngine(tinyCryptoNet(1), cfg, nil); err == nil {
		t.Fatal("nil evaluation keys accepted")
	}
}

func TestEngineRejectsInsufficientCRTRange(t *testing.T) {
	cfg := testConfig()
	cfg.Moduli = []uint64{3, 5} // range 15, far below the pipeline values
	_, ek, err := GenerateKeys(cfg, ring.NewSeededSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(tinyCryptoNet(2), cfg, ek); err == nil {
		t.Fatal("insufficient CRT range accepted")
	}
}

func TestPureHEInferenceMatchesReference(t *testing.T) {
	cfg := testConfig()
	kb, ek, err := GenerateKeys(cfg, ring.NewSeededSource(4))
	if err != nil {
		t.Fatal(err)
	}
	model := tinyCryptoNet(5)
	engine, err := NewEngine(model, cfg, ek)
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(5)
	ci, err := kb.EncryptImage(img, cfg.PixelScale, ring.NewSeededSource(6))
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kb.DecryptCRT(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d logits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}
}

func TestPureHEArgmaxMatchesFloat(t *testing.T) {
	cfg := testConfig()
	kb, ek, err := GenerateKeys(cfg, ring.NewSeededSource(7))
	if err != nil {
		t.Fatal(err)
	}
	model := tinyCryptoNet(8)
	engine, err := NewEngine(model, cfg, ek)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	const trials = 3
	for trial := 0; trial < trials; trial++ {
		img := tinyImage(uint64(50 + trial))
		floatOut, err := model.Forward(img)
		if err != nil {
			t.Fatal(err)
		}
		ci, _ := kb.EncryptImage(img, cfg.PixelScale, ring.NewSeededSource(uint64(60+trial)))
		results, err := engine.Infer(ci)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kb.DecryptCRT(results)
		if err != nil {
			t.Fatal(err)
		}
		arg, best := 0, int64(math.MinInt64)
		for i, v := range got {
			if v > best {
				arg, best = i, v
			}
		}
		if arg == floatOut.ArgMax() {
			agree++
		}
	}
	if agree < trials-1 {
		t.Fatalf("only %d/%d argmax agreements", agree, trials)
	}
}

func TestNoiseBudgetSurvivesPipeline(t *testing.T) {
	cfg := testConfig()
	kb, ek, err := GenerateKeys(cfg, ring.NewSeededSource(10))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(tinyCryptoNet(11), cfg, ek)
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(11)
	ci, _ := kb.EncryptImage(img, cfg.PixelScale, ring.NewSeededSource(12))
	results, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	for m := range results {
		dec, err := he.NewDecryptor(kb.SKs[m])
		if err != nil {
			t.Fatal(err)
		}
		budget, err := dec.NoiseBudget(results[m][0])
		if err != nil {
			t.Fatal(err)
		}
		if budget <= 0 {
			t.Fatalf("modulus %d budget exhausted: %.1f", m, budget)
		}
		t.Logf("modulus t=%d final budget: %.1f bits", kb.Params[m].T, budget)
	}
}

func TestDecryptCRTValidation(t *testing.T) {
	cfg := testConfig()
	kb, _, err := GenerateKeys(cfg, ring.NewSeededSource(13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kb.DecryptCRT(nil); err == nil {
		t.Fatal("nil results accepted")
	}
	if _, err := kb.DecryptCRT([][]*he.Ciphertext{{}, {}, {}, {}}); err == nil {
		t.Fatal("empty results accepted")
	}
}

func TestInferRejectsWrongImage(t *testing.T) {
	cfg := testConfig()
	_, ek, err := GenerateKeys(cfg, ring.NewSeededSource(14))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(tinyCryptoNet(15), cfg, ek)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Infer(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := engine.Infer(&CipherImage{CTs: make([][]*he.Ciphertext, 1)}); err == nil {
		t.Fatal("wrong modulus count accepted")
	}
}

// perTermChain is the multiply-accumulate chain the weighted-sum kernel
// replaced: bias + Σ w·ct with one ring.MulScalarAdd per non-zero weight,
// each lifted as LiftCentered(w mod t), then the dense Δ·bias add.
func perTermChain(p he.Parameters, cts []*he.Ciphertext, ws []int64, bias *he.Plaintext) *he.Ciphertext {
	r := p.Ring()
	acc := he.NewCiphertext(p, cts[0].Size())
	tm := int64(p.T)
	for k, w := range ws {
		if w != 0 {
			lifted := p.LiftCentered(uint64((w%tm + tm) % tm))
			for i := range acc.Polys {
				r.MulScalarAdd(cts[k].Polys[i], lifted, acc.Polys[i])
			}
		}
	}
	dm := r.NewPoly()
	r.MulScalar(bias.Poly, p.Delta(), dm)
	r.Add(acc.Polys[0], dm, acc.Polys[0])
	return acc
}

// TestWeightsPastHalfTMatchPerTermChain quantizes the tiny network at a
// weight scale whose largest weights exceed t/2 for every CRT modulus, so
// the evaluator's mod-t centring decides how each weight is lifted. Each
// modulus's conv and FC outputs must equal the per-term chain coefficient for
// coefficient, and the CRT-reconstructed logits the integer reference.
func TestWeightsPastHalfTMatchPerTermChain(t *testing.T) {
	// Weights 32× the usual scale need more CRT range and, through the
	// square, the noise headroom of a 58-bit modulus.
	cfg := testConfig()
	cfg.WeightScale = 256
	cfg.N, cfg.QBits = 1024, 58
	cfg.Moduli = []uint64{113, 127, 131, 137, 139, 149, 151}
	kb, ek, err := GenerateKeys(cfg, ring.NewSeededSource(21))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(tinyCryptoNet(22), cfg, ek)
	if err != nil {
		t.Fatal(err)
	}
	conv, fc := engine.steps[0].conv, engine.steps[len(engine.steps)-1].fc
	var maxW int64
	for _, w := range append(append([]int64{}, conv.W...), fc.W...) {
		maxW = max(maxW, absInt64(w))
	}
	if maxW <= int64(slices.Max(cfg.Moduli)/2) {
		t.Fatalf("largest quantized weight %d does not exceed t/2 for every modulus", maxW)
	}
	img := tinyImage(23)
	ci, err := kb.EncryptImage(img, cfg.PixelScale, ring.NewSeededSource(24))
	if err != nil {
		t.Fatal(err)
	}
	for m, p := range engine.params {
		eval, scal := engine.evals[m], engine.scals[m]
		convBias := linear.EncodeBias(scal, conv.B)
		out, oh, ow, err := linear.Conv(eval, conv, convBias, ci.CTs[m], 1, 8, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]int64, conv.K*conv.K)
		cts := make([]*he.Ciphertext, conv.K*conv.K)
		for idx, got := range out {
			o, oy, ox := idx/(oh*ow), idx%(oh*ow)/ow, idx%ow
			for ky := 0; ky < conv.K; ky++ {
				for kx := 0; kx < conv.K; kx++ {
					cts[ky*conv.K+kx] = ci.CTs[m][(oy+ky)*8+ox+kx]
					ws[ky*conv.K+kx] = conv.WAt(o, 0, ky, kx)
				}
			}
			assertChain(t, fmt.Sprintf("t=%d conv output %d", p.T, idx), got, perTermChain(p, cts, ws, convBias[o]))
		}
		in := ci.CTs[m][:fc.In]
		fcBias := linear.EncodeBias(scal, fc.B)
		fcOut, err := linear.FC(eval, fc, fcBias, in, 1)
		if err != nil {
			t.Fatal(err)
		}
		for o, got := range fcOut {
			assertChain(t, fmt.Sprintf("t=%d fc output %d", p.T, o), got, perTermChain(p, in, fc.W[o*fc.In:(o+1)*fc.In], fcBias[o]))
		}
	}
	results, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kb.DecryptCRT(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}
}

func assertChain(t *testing.T, what string, got, want *he.Ciphertext) {
	t.Helper()
	for i := range want.Polys {
		if !got.Polys[i].Equal(want.Polys[i]) {
			t.Fatalf("%s: component %d differs from the per-term chain", what, i)
		}
	}
}
