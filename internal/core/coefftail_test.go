package core

import (
	"context"
	"errors"
	mrand "math/rand/v2"
	"strings"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/trace"
)

// inferReported runs one traced inference and returns the result with the
// request's flight report, whose per-layer cts_in / coeff_tail fields say
// which tail actually ran — a silent fallback cannot hide behind exact
// logits.
func inferReported(t testing.TB, engine *HybridEngine, ci *CipherImage) (*InferenceResult, *report.FlightReport) {
	t.Helper()
	tracer := trace.NewTracer(1)
	tr := tracer.Start("request")
	res, err := engine.InferContext(trace.With(context.Background(), tr), ci)
	tracer.Finish(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res, report.FromTrace(tr)
}

// layerOfKind returns the last layer of the given kind in the report.
func layerOfKind(t testing.TB, fr *report.FlightReport, kind string) report.Layer {
	t.Helper()
	for i := len(fr.Layers) - 1; i >= 0; i-- {
		if fr.Layers[i].Kind == kind {
			return fr.Layers[i]
		}
	}
	t.Fatalf("flight report has no %s layer", kind)
	return report.Layer{}
}

// inferMeasured is inferReported with the key holder between the engine and
// the enclave: it also returns, per layer label, the smallest noise budget
// client measured on the ciphertexts that layer's ECALLs carried.
func inferMeasured(t testing.TB, engine *HybridEngine, ci *CipherImage, client *Client) (*InferenceResult, *report.FlightReport, map[string]float64) {
	t.Helper()
	probe := &opRecorder{next: engine.caller, client: client}
	engine.SetNonlinearCaller(probe)
	defer engine.SetNonlinearCaller(probe.next)
	res, fr := inferReported(t, engine, ci)
	return res, fr, probe.budgets
}

// assertConservative checks the accountant's contract on every layer that
// crossed into the enclave — the plan's prediction is a lower bound on the
// budget the key holder measured on what crossed — and returns how many
// layers crossed.
func assertConservative(t testing.TB, fr *report.FlightReport, measured map[string]float64) (crossed int) {
	t.Helper()
	for _, l := range fr.Layers {
		bits, ok := measured[l.Label]
		if ok != (l.CtsCrossed > 0) {
			t.Errorf("layer %s: %d ciphertexts crossed, but measured = %v", l.Label, l.CtsCrossed, ok)
		}
		if !ok {
			continue
		}
		crossed++
		if *l.PredictedBudgetBits > bits {
			t.Errorf("layer %s: predicted %.2f bits exceeds measured %.2f", l.Label, *l.PredictedBudgetBits, bits)
		}
	}
	return crossed
}

// assertTail checks which tail a packed request's pool and FC layers ran.
func assertTail(t testing.TB, fr *report.FlightReport, coeff bool, fcIn int) {
	t.Helper()
	pool, fc := layerOfKind(t, fr, "pool"), layerOfKind(t, fr, "fc")
	wantIn := fcIn
	if coeff {
		wantIn = 1
	}
	if pool.CtsOut != wantIn || fc.CtsIn != wantIn {
		t.Fatalf("pool emitted %d cts, fc consumed %d, want %d (coefficient tail %v)", pool.CtsOut, fc.CtsIn, wantIn, coeff)
	}
	if pool.CoeffTail != coeff || fc.CoeffTail != coeff {
		t.Fatalf("coeff_tail pool=%v fc=%v, want %v", pool.CoeffTail, fc.CoeffTail, coeff)
	}
}

func assertLogits(t testing.TB, client *Client, engine *HybridEngine, img *nn.Tensor, logits []*he.Ciphertext) {
	t.Helper()
	got, err := client.DecryptValues(logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("logit count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}
}

func randomImage(r *mrand.Rand, c, h, w int) *nn.Tensor {
	img := nn.NewTensor(c, h, w)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

// Randomized small networks — varying channels, kernel, pool window and FC
// width — through the coefficient tail must match the plaintext oracle and
// the scalar-layout encrypted pipeline bit for bit.
func TestCoeffTailRandomNetworks(t *testing.T) {
	svc := packedTestService(t, 31)
	client := testClient(t, svc)
	cfg := packedTestConfig()
	for seed := uint64(1); seed <= 6; seed++ {
		// Odd seeds shard the FC outputs across workers, which share the
		// hoisted input (the packed-conv CI job runs this under -race).
		cfg.Workers = int(seed%2) * 3
		r := mrand.New(mrand.NewPCG(seed, 101))
		inC, outC := 1+r.IntN(2), 1+r.IntN(4)
		k, window, m := 2+r.IntN(3), 2+r.IntN(2), 2+r.IntN(4)
		side := k - 1 + window*m
		fcIn, fcOut := outC*m*m, 1+r.IntN(6)
		model := nn.NewNetwork(
			nn.NewConv2D(inC, outC, k, 1, r),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MeanPool, window),
			&nn.Flatten{},
			nn.NewFullyConnected(fcIn, fcOut, r),
		)
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if info := engine.PackedInfo(); !info.CoeffTail {
			t.Fatalf("seed %d (%dx%d→%d ch, k=%d, pool %d, fc %d→%d): coefficient tail declined: %s%s",
				seed, side, side, outC, k, window, fcIn, fcOut, info.Reason, info.CoeffTailReason)
		}
		img := randomImage(r, inC, side, side)
		ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, fr := inferReported(t, engine, ci)
		assertTail(t, fr, true, fcIn)
		assertLogits(t, client, engine, img, res.Logits)

		scalar, err := client.encryptImageScalar(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := engine.Infer(scalar)
		if err != nil {
			t.Fatal(err)
		}
		assertLogits(t, client, engine, img, sres.Logits)
	}
}

// Anything but flatten → FC behind the prefix, or an FC wider than the ring
// degree, keeps the scalar unpack — and still answers exactly.
func TestCoeffTailFallbacks(t *testing.T) {
	cfg := packedTestConfig()
	cases := []struct {
		name   string
		side   int
		model  func(r *mrand.Rand) *nn.Network
		fcIn   int
		reason string
		slow   bool
	}{
		{
			name: "activation behind the pool", side: 8, fcIn: 18, reason: "not followed by flatten",
			model: func(r *mrand.Rand) *nn.Network {
				return nn.NewNetwork(
					nn.NewConv2D(1, 2, 3, 1, r),
					nn.NewActivation(nn.Sigmoid),
					nn.NewPool2D(nn.MeanPool, 2),
					nn.NewActivation(nn.Sigmoid),
					&nn.Flatten{},
					nn.NewFullyConnected(18, 3, r),
				)
			},
		},
		{
			// 10 channels of 15×15 = 2250 pooled values > n = 2048.
			name: "fc wider than the ring degree", side: 32, fcIn: 2250, reason: "exceeds 2048 plaintext coefficients", slow: true,
			model: func(r *mrand.Rand) *nn.Network {
				return nn.NewNetwork(
					nn.NewConv2D(1, 10, 3, 1, r),
					nn.NewActivation(nn.Sigmoid),
					nn.NewPool2D(nn.MeanPool, 2),
					&nn.Flatten{},
					nn.NewFullyConnected(2250, 2, r),
				)
			},
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("2250 scalar re-encryptions skipped in short mode")
			}
			svc := packedTestService(t, uint64(33+i))
			client := testClient(t, svc)
			r := mrand.New(mrand.NewPCG(uint64(51+i), 53))
			engine, err := newHybridEngine(svc, tc.model(r), cfg)
			if err != nil {
				t.Fatal(err)
			}
			info := engine.PackedInfo()
			if !info.Active || info.CoeffTail || !strings.Contains(info.CoeffTailReason, tc.reason) {
				t.Fatalf("want active prefix with the coefficient tail declined (%q), got %+v", tc.reason, info)
			}
			img := randomImage(r, 1, tc.side, tc.side)
			ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
			if err != nil {
				t.Fatal(err)
			}
			res, fr := inferReported(t, engine, ci)
			assertTail(t, fr, false, tc.fcIn)
			assertLogits(t, client, engine, img, res.Logits)
		})
	}
}

// The enclave refuses a coefficient-output request it cannot honour — a
// pooled map larger than one plaintext, or a batch that does not match the
// channel count — with ErrPoolUnpackRequest, before re-encrypting anything.
func TestPoolUnpackCoeffOutHostileRequests(t *testing.T) {
	svc := packedTestService(t, 37)
	client := testClient(t, svc)
	ci, err := client.EncryptImagePacked(nn.NewTensor(1, 28, 28), 255)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(n int) []*he.Ciphertext {
		cts := make([]*he.Ciphertext, n)
		for i := range cts {
			cts[i] = ci.CTs[0]
		}
		return cts
	}
	op := func(channels int) NonlinearOp {
		return NonlinearOp{Kind: OpPoolUnpack, Divisor: 4, Lanes: 28, CoeffOut: true,
			Geometry: Geometry{Channels: channels, Height: 24, Width: 24, Window: 2}}
	}
	ctx := context.Background()
	// 16·12·12 = 2304 > n = 2048; 15 channels (2160) is still too many, 14
	// (2016) fits.
	for _, channels := range []int{15, 16, 1 << 30} {
		if _, err := svc.Nonlinear(ctx, op(channels), batch(2)); !errors.Is(err, ErrPoolUnpackRequest) {
			t.Fatalf("%d channels: got %v, want ErrPoolUnpackRequest", channels, err)
		}
	}
	if _, err := svc.Nonlinear(ctx, op(3), batch(2)); !errors.Is(err, ErrPoolUnpackRequest) {
		t.Fatalf("2 cts for 3 channels: got %v, want ErrPoolUnpackRequest", err)
	}
	out, err := svc.Nonlinear(ctx, op(14), batch(14))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("coefficient output returned %d cts, want 1", len(out))
	}
	if err := (NonlinearOp{Kind: OpPoolDivide, Divisor: 4, CoeffOut: true}).Validate(); err == nil {
		t.Fatal("CoeffOut accepted on an op other than pool unpack")
	}
}

// Two inferences of one image must agree on coefficient 0 (the logit) and
// disagree everywhere else: the by-products of the plaintext product are
// hidden behind a fresh uniform mask each time.
func TestCoeffTailMasksByproducts(t *testing.T) {
	svc := packedTestService(t, 39)
	client := testClient(t, svc)
	cfg := packedTestConfig()
	engine, err := newHybridEngine(svc, tinyCNN(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := client.EncryptImagePacked(tinyImage(6), cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]*he.Plaintext
	for i := range runs {
		res, fr := inferReported(t, engine, ci)
		assertTail(t, fr, true, 18)
		for _, ct := range res.Logits {
			pt, err := client.dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = append(runs[i], pt)
		}
	}
	n, tmod := svc.Params().N, float64(svc.Params().T)
	for o := range runs[0] {
		a, b := runs[0][o].Poly.Coeffs, runs[1][o].Poly.Coeffs
		if a[0] != b[0] {
			t.Fatalf("logit %d: coefficient 0 differs across runs (%d vs %d)", o, a[0], b[0])
		}
		same, mean := 0, 0.0
		for j := 1; j < n; j++ {
			if a[j] == b[j] {
				same++
			}
			mean += float64(a[j]) / tmod
		}
		// Uniform values mod t ≈ 2^25 collide with probability 2^-25 per
		// position and average t/2 (σ of the mean ≈ 0.0064 over 2047 draws).
		if same > 1 {
			t.Fatalf("logit %d: %d of %d masked coefficients repeat across runs", o, same, n-1)
		}
		if mean /= float64(n - 1); mean < 0.45 || mean > 0.55 {
			t.Fatalf("logit %d: masked coefficients average %.3f·t, want ≈ 0.5·t", o, mean)
		}
	}
}

// The static accountant must stay a lower bound on every budget the packed
// path lets anyone measure — the conv outputs entering the fused pool ECALL
// and the logits the coefficient tail produces — at both parameter tiers.
func TestCoeffTailNoisePredictionConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size packed CNN test skipped in short mode")
	}
	for _, n := range []int{2048, 8192} {
		tmod, err := SIMDBatchingModulus(n, 25)
		if err != nil {
			t.Fatal(err)
		}
		params, err := he.DefaultParametersLowLift(n, tmod)
		if err != nil {
			t.Fatal(err)
		}
		platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(uint64(n))))
		if err != nil {
			t.Fatal(err)
		}
		client := testClient(t, svc)
		r := mrand.New(mrand.NewPCG(61, uint64(n)))
		cfg := packedTestConfig()
		engine, err := newHybridEngine(svc, nn.PaperCNN(r), cfg)
		if err != nil {
			t.Fatal(err)
		}
		info := engine.PackedInfo()
		if !info.CoeffTail || info.FCBudgetBits <= 0 {
			t.Fatalf("n=%d: coefficient tail not planned: %+v", n, info)
		}
		if pi := engine.PlanInfo()[4]; pi.PackedBudgetBits == nil || *pi.PackedBudgetBits != info.FCBudgetBits {
			t.Fatalf("n=%d: PlanInfo does not carry the coefficient-tail fc prediction: %+v", n, pi)
		}
		img := randomImage(r, 1, 28, 28)
		ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, fr, measured := inferMeasured(t, engine, ci, client)
		assertTail(t, fr, true, 864)
		assertLogits(t, client, engine, img, res.Logits)
		if fc := layerOfKind(t, fr, "fc"); fc.PredictedBudgetBits == nil || *fc.PredictedBudgetBits != info.FCBudgetBits {
			t.Fatalf("n=%d: fc span predicts %v bits, plan says %.2f", n, fc.PredictedBudgetBits, info.FCBudgetBits)
		}
		// The prefix is one crossing: its ECALL carries the conv outputs, so
		// the conv's and the fused pool's prediction are the same bound, and
		// both must sit under the budget measured on them.
		conv, pool := layerOfKind(t, fr, "conv"), layerOfKind(t, fr, "pool")
		convOut, ok := measured[pool.Label]
		if !pool.Fused || !ok || pool.CtsCrossed != 6 {
			t.Fatalf("n=%d: pool layer %+v: want the fused ECALL carrying the 6 conv outputs", n, pool)
		}
		if *conv.PredictedBudgetBits != info.ConvBudgetBits || *pool.PredictedBudgetBits != info.PoolBudgetBits || info.PoolBudgetBits != info.ConvBudgetBits {
			t.Errorf("n=%d: spans predict conv %.2f / pool %.2f bits, plan says %.2f / %.2f — one bound for both",
				n, *conv.PredictedBudgetBits, *pool.PredictedBudgetBits, info.ConvBudgetBits, info.PoolBudgetBits)
		}
		if *conv.PredictedBudgetBits > convOut {
			t.Errorf("n=%d conv: predicted %.2f bits exceeds the %.2f measured on its outputs", n, *conv.PredictedBudgetBits, convOut)
		}
		if got := assertConservative(t, fr, measured); got != 1 {
			t.Errorf("n=%d: %d layers crossed, want the one fused ECALL", n, got)
		}
		for o, ct := range res.Logits {
			measured, err := client.NoiseBudget(ct)
			if err != nil {
				t.Fatal(err)
			}
			if info.FCBudgetBits > measured {
				t.Errorf("n=%d logit %d: predicted %.2f bits exceeds measured %.2f — the accountant is unsound", n, o, info.FCBudgetBits, measured)
			}
		}
	}
}

// When the worst-case bound of the plaintext product is exhausted the
// planner must decline the coefficient tail instead of risking garbage; the
// scalar unpack keeps serving the request. The conv weights are shrunk so
// the large WeightScale exhausts the FC bound, not the rotation-keyed conv's.
func TestCoeffTailDeclinedWhenNoiseBoundExhausted(t *testing.T) {
	svc := packedTestService(t, 41)
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(71, 73))
	conv := nn.NewConv2D(1, 6, 3, 1, r)
	for i := range conv.Weight.W.Data {
		conv.Weight.W.Data[i] *= 0.01
	}
	model := nn.NewNetwork(conv, nn.NewActivation(nn.Sigmoid), nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{}, nn.NewFullyConnected(6*9*9, 3, r))
	cfg := packedTestConfig()
	cfg.WeightScale = 1024
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := engine.PackedInfo()
	if !info.Active || info.CoeffTail || !strings.Contains(info.CoeffTailReason, "noise bound exhausted") {
		t.Fatalf("want active prefix with the coefficient tail declined on noise, got %+v", info)
	}
	img := randomImage(r, 1, 20, 20)
	ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, fr := inferReported(t, engine, ci)
	assertTail(t, fr, false, 6*9*9)
	assertLogits(t, client, engine, img, res.Logits)
}
