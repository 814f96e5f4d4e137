package bench

import (
	"context"
	mrand "math/rand/v2"

	"hesgx/internal/core"
	"hesgx/internal/cryptonets"
	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// RunFig3 regenerates Fig. 3: weight-encoding time against the number of
// weights. (a) fixes the kernel count at 11 and 26 while sweeping kernel
// size; (b) sweeps both. The paper's finding: encoding time is linear in
// the weight count and insensitive to anything else.
func (o Options) RunFig3() error {
	o.section("Fig. 3 — weight encoding time vs number of weights")
	params, err := paperMicroParams()
	if err != nil {
		return err
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		return err
	}
	scalar, err := encoding.NewScalarEncoder(params)
	if err != nil {
		return err
	}
	encodeWeights := func(count int) float64 {
		return timeIt(func() {
			for i := 0; i < count; i++ {
				if _, err := eval.PrepareOperand(scalar.Encode(int64(i%7 - 3))); err != nil {
					panic(err)
				}
			}
		})
	}

	kernelSizes := []int{2, 3, 5, 7, 9, 11, 14}
	if o.Quick {
		kernelSizes = []int{2, 5, 9}
	}
	o.printf("### (a) fixed kernel count, sweeping kernel size\n\n")
	o.printf("| kernels | kernel size | weights | time (ms) |\n|---|---|---|---|\n")
	for _, kernels := range []int{11, 26} {
		for _, k := range kernelSizes {
			weights := kernels*k*k + kernels // + bias
			t := encodeWeights(weights)
			o.printf("| %d | %d | %d | %.3f |\n", kernels, k, weights, t)
		}
	}
	o.printf("\n### (b) sweeping kernel count and size together\n\n")
	o.printf("| kernels | kernel size | weights | time (ms) |\n|---|---|---|---|\n")
	for i, k := range kernelSizes {
		kernels := 4 * (i + 1)
		weights := kernels*k*k + kernels
		t := encodeWeights(weights)
		o.printf("| %d | %d | %d | %.3f |\n", kernels, k, weights, t)
	}
	o.printf("\npaper finding to check: time grows linearly with the weight count (Fig. 3a/3b)\n")
	return nil
}

// RunFig4 regenerates Fig. 4: homomorphic convolution time of one 28×28
// feature map against kernel size 1..28 (stride 1), alongside the C×P and
// C+C operation count, which peaks at 44100 for kernel size 14/15. The
// paper's finding: op count is symmetric but small kernels pay extra loop
// overhead, so time is skewed left.
func (o Options) RunFig4() error {
	o.section("Fig. 4 — homomorphic convolution time vs kernel size (28×28 map)")
	params, err := paperMicroParams()
	if err != nil {
		return err
	}
	kg, err := he.NewKeyGenerator(params, o.source(20))
	if err != nil {
		return err
	}
	_, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, o.source(21))
	if err != nil {
		return err
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		return err
	}
	scalar, err := encoding.NewScalarEncoder(params)
	if err != nil {
		return err
	}

	const size = 28
	cts := make([]*he.Ciphertext, size*size)
	for i := range cts {
		ct, err := enc.EncryptScalar(uint64(i % 4))
		if err != nil {
			return err
		}
		cts[i] = ct
	}

	sizes := make([]int, 0, size)
	step := 1
	if o.Quick {
		step = 4
	}
	for k := 1; k <= size; k += step {
		sizes = append(sizes, k)
	}
	if sizes[len(sizes)-1] != size {
		sizes = append(sizes, size)
	}

	o.printf("| kernel size | C×P / C+C count | time (s) |\n|---|---|---|\n")
	for _, k := range sizes {
		out := size - k + 1
		ops := out * out * k * k // C×P count; C+C is out²(k²-1)+out² with bias
		// One prepared operand per kernel position.
		ops2 := make([]*he.PlainOperand, k*k)
		for i := range ops2 {
			op, err := eval.PrepareOperand(scalar.Encode(int64(i%5 - 2)))
			if err != nil {
				return err
			}
			ops2[i] = op
		}
		t := timeIt(func() {
			for oy := 0; oy < out; oy++ {
				for ox := 0; ox < out; ox++ {
					var acc *he.Ciphertext
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							term, err := eval.MulPlainOperand(cts[(oy+ky)*size+ox+kx], ops2[ky*k+kx])
							if err != nil {
								panic(err)
							}
							if acc == nil {
								acc = term
							} else if acc, err = eval.Add(acc, term); err != nil {
								panic(err)
							}
						}
					}
				}
			}
		}) / 1000.0
		o.printf("| %d | %d | %.3f |\n", k, ops, t)
	}
	o.printf("\npaper findings to check: op count symmetric around 14/15 (max 44100, reproduced exactly);\n")
	o.printf("time tracks the op count. DEVIATION: the paper's 16.66x small-kernel penalty (k=1 vs k=28)\n")
	o.printf("came from SEAL 2.1's per-window loop overhead, which this implementation does not have —\n")
	o.printf("see EXPERIMENTS.md Fig. 4 notes.\n")
	return nil
}

// RunFig5 regenerates Fig. 5: Sigmoid computation time per feature map as
// the map size grows — EncryptSigmoid (HE square + relinearization, the
// CryptoNets approximation) vs SGXSigmoid (exact Sigmoid inside the
// calibrated enclave) vs FakeSGXSigmoid (the same code with no enclave
// costs).
func (o Options) RunFig5() error {
	o.section("Fig. 5 — Sigmoid computing time with/without SGX")
	params, err := paperMicroParams()
	if err != nil {
		return err
	}
	kg, err := he.NewKeyGenerator(params, o.source(30))
	if err != nil {
		return err
	}
	sk, pk := kg.GenKeyPair()
	ek := kg.GenEvaluationKeys(sk)
	enc, err := he.NewEncryptor(pk, o.source(31))
	if err != nil {
		return err
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		return err
	}

	calibrated, err := calibratedPlatform(o.Seed + 32)
	if err != nil {
		return err
	}
	fake, err := zeroPlatform(o.Seed + 33)
	if err != nil {
		return err
	}
	sgxSvc, err := core.NewEnclaveService(calibrated, params, core.WithKeySource(o.source(34)))
	if err != nil {
		return err
	}
	fakeSvc, err := core.NewEnclaveService(fake, params, core.WithKeySource(o.source(35)))
	if err != nil {
		return err
	}

	mapSizes := []int{4, 8, 12, 16, 20, 24}
	if o.Quick {
		mapSizes = []int{4, 12, 24}
	}
	o.printf("| map size | calcs | EncryptSigmoid (s) | SGXSigmoid (s) | FakeSGXSigmoid (s) |\n|---|---|---|---|---|\n")
	for _, m := range mapSizes {
		count := m * m
		cts := make([]*he.Ciphertext, count)
		for i := range cts {
			ct, err := enc.EncryptScalar(uint64(i % 4))
			if err != nil {
				return err
			}
			cts[i] = ct
		}
		encTime := timeIt(func() {
			for _, ct := range cts {
				sq, err := eval.Square(ct)
				if err != nil {
					panic(err)
				}
				if _, err := eval.Relinearize(sq, ek); err != nil {
					panic(err)
				}
			}
		}) / 1000.0

		// Enclave paths need ciphertexts under the services' keys.
		sgxTime, err := timeEnclaveSigmoid(sgxSvc, count)
		if err != nil {
			return err
		}
		fakeTime, err := timeEnclaveSigmoid(fakeSvc, count)
		if err != nil {
			return err
		}
		o.printf("| %d | %d | %.3f | %.3f | %.3f |\n", m, count, encTime, sgxTime, fakeTime)
	}
	o.printf("\npaper findings to check: EncryptSigmoid >> SGXSigmoid > FakeSGXSigmoid at every size;\n")
	o.printf("all three grow with the number of calculations\n")
	return nil
}

func timeEnclaveSigmoid(svc *core.EnclaveService, count int) (float64, error) {
	enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewSeededSource(9))
	if err != nil {
		return 0, err
	}
	cts := make([]*he.Ciphertext, count)
	for i := range cts {
		ct, err := enc.EncryptScalar(uint64(i % 4))
		if err != nil {
			return 0, err
		}
		cts[i] = ct
	}
	var callErr error
	t := timeIt(func() {
		_, callErr = svc.Nonlinear(context.Background(),
			core.NonlinearOp{Kind: core.OpSigmoid, InScale: 2, OutScale: 2}, cts)
	}) / 1000.0
	return t, callErr
}

// RunFig6 regenerates Fig. 6: pooling time across window sizes on a 24×24
// feature map — SGXDiv (HE window sum + enclave divide) vs SGXPool (whole
// map into the enclave), with FakeSGX controls. The paper's finding: a
// crossover near window size 3.
func (o Options) RunFig6() error {
	o.section("Fig. 6 — pooling time with/without SGX (24×24 map)")
	params, err := paperMicroParams()
	if err != nil {
		return err
	}
	calibrated, err := calibratedPlatform(o.Seed + 40)
	if err != nil {
		return err
	}
	fake, err := zeroPlatform(o.Seed + 41)
	if err != nil {
		return err
	}
	sgxSvc, err := core.NewEnclaveService(calibrated, params, core.WithKeySource(o.source(42)))
	if err != nil {
		return err
	}
	fakeSvc, err := core.NewEnclaveService(fake, params, core.WithKeySource(o.source(43)))
	if err != nil {
		return err
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		return err
	}

	const size = 24
	windows := []int{2, 3, 4, 6, 8, 12}
	if o.Quick {
		windows = []int{2, 3, 6}
	}
	o.printf("| window | sums into SGX (div) | map into SGX (pool) | EncryptedSum (s) | SGXDivide (s) | SGXDiv total (s) | FakeSGXDiv total (s) | SGXPool (s) | FakeSGXPool (s) |\n")
	o.printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, k := range windows {
		out := size / k
		divide := func(svc *core.EnclaveService) (sumT, divT float64, err error) {
			enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewSeededSource(uint64(k)))
			if err != nil {
				return 0, 0, err
			}
			cts := make([]*he.Ciphertext, size*size)
			for i := range cts {
				if cts[i], err = enc.EncryptScalar(uint64(i % 3)); err != nil {
					return 0, 0, err
				}
			}
			var sums []*he.Ciphertext
			sumT = timeIt(func() {
				sums = make([]*he.Ciphertext, out*out)
				for oy := 0; oy < out; oy++ {
					for ox := 0; ox < out; ox++ {
						var acc *he.Ciphertext
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								ct := cts[(oy*k+ky)*size+ox*k+kx]
								if acc == nil {
									acc = ct
								} else if acc, err = eval.Add(acc, ct); err != nil {
									panic(err)
								}
							}
						}
						sums[oy*out+ox] = acc
					}
				}
			}) / 1000.0
			var callErr error
			divT = timeIt(func() {
				_, callErr = svc.Nonlinear(context.Background(),
					core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: uint64(k * k)}, sums)
			}) / 1000.0
			return sumT, divT, callErr
		}
		full := func(svc *core.EnclaveService) (float64, error) {
			enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewSeededSource(uint64(k)+100))
			if err != nil {
				return 0, err
			}
			cts := make([]*he.Ciphertext, size*size)
			for i := range cts {
				if cts[i], err = enc.EncryptScalar(uint64(i % 3)); err != nil {
					return 0, err
				}
			}
			var callErr error
			t := timeIt(func() {
				_, callErr = svc.Nonlinear(context.Background(), core.NonlinearOp{
					Kind:     core.OpPoolFull,
					Geometry: core.Geometry{Channels: 1, Height: size, Width: size, Window: k},
				}, cts)
			}) / 1000.0
			return t, callErr
		}

		sumT, divT, err := divide(sgxSvc)
		if err != nil {
			return err
		}
		fSumT, fDivT, err := divide(fakeSvc)
		if err != nil {
			return err
		}
		poolT, err := full(sgxSvc)
		if err != nil {
			return err
		}
		fPoolT, err := full(fakeSvc)
		if err != nil {
			return err
		}
		o.printf("| %d | %d | %d | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
			k, out*out, size*size, sumT, divT, sumT+divT, fSumT+fDivT, poolT, fPoolT)
	}
	o.printf("\npaper findings to check: larger windows cheaper overall; SGXDiv beats SGXPool for windows >= 3;\n")
	o.printf("SGXPool cost stays roughly flat (fixed %d values enter the enclave)\n", size*size)
	return nil
}

// Fig8Sizes selects the end-to-end experiment geometry.
type fig8Geometry struct {
	imgSize  int
	kernels  int
	kernelSz int
	poolK    int
	classes  int
}

// RunFig8 regenerates Fig. 8: end-to-end prediction time per image for the
// four schemes — Encrypted (pure HE CryptoNets), EncryptSGX(single)
// (per-value ECALLs), EncryptSGX (batched hybrid), EncryptFakeSGX (hybrid
// with zero enclave costs). Paper: hybrid saves 39.615% over pure HE;
// per-pixel ECALLs are catastrophic. The hybrid rows pin the paper's
// pooling strategy for the window, so they stay its two-ECALL pipeline
// (activation, then pooling); one extra row runs this repo's default plan,
// which fuses the pair into one ECALL. Both sides multiply weights in as
// constant coefficients (the shared linear kernels); the paper's full C×P
// cost is what Fig. 3 and Fig. 4 measure on the evaluator directly.
func (o Options) RunFig8() error {
	o.section("Fig. 8 — end-to-end prediction time with/without SGX")
	geom := fig8Geometry{imgSize: 28, kernels: 6, kernelSz: 5, poolK: 2, classes: 10}
	if o.Quick {
		geom = fig8Geometry{imgSize: 12, kernels: 3, kernelSz: 3, poolK: 2, classes: 10}
	}
	rng := mrand.New(mrand.NewPCG(o.Seed, 77))
	convOut := geom.imgSize - geom.kernelSz + 1
	fcIn := geom.kernels * (convOut / geom.poolK) * (convOut / geom.poolK)

	hybridModel := nn.NewNetwork(
		nn.NewConv2D(1, geom.kernels, geom.kernelSz, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, geom.poolK),
		&nn.Flatten{},
		nn.NewFullyConnected(fcIn, geom.classes, rng),
	)
	baselineModel := nn.NewNetwork(
		nn.NewConv2D(1, geom.kernels, geom.kernelSz, 1, rng),
		nn.NewActivation(nn.Square),
		nn.NewPool2D(nn.SumPool, geom.poolK),
		&nn.Flatten{},
		nn.NewFullyConnected(fcIn, geom.classes, rng),
	)
	img := nn.NewTensor(1, geom.imgSize, geom.imgSize)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}

	// Both pipelines use the n=4096 tier so per-operation costs compare
	// apples to apples (the baseline needs the noise headroom for ct×ct).
	cnCfg := cryptonets.DefaultConfig()
	if o.Quick {
		cnCfg.N = 2048
		cnCfg.QBits = 56
	}
	baselineTime, err := o.runFig8Baseline(baselineModel, cnCfg, img)
	if err != nil {
		return err
	}

	hybridQ, err := ring.GenerateNTTPrimeCongruent(cnCfg.QBits, cnCfg.N, 1<<25)
	if err != nil {
		return err
	}
	hybridParams, err := he.NewParameters(cnCfg.N, hybridQ, 1<<25, he.DefaultDecompositionBase)
	if err != nil {
		return err
	}
	calibrated, err := calibratedPlatform(o.Seed + 50)
	if err != nil {
		return err
	}
	fake, err := zeroPlatform(o.Seed + 51)
	if err != nil {
		return err
	}
	paperPool := core.WithPoolStrategy(core.ChoosePoolStrategy(geom.poolK))
	sgxTime, err := o.runFig8Hybrid(hybridModel, hybridParams, calibrated, img, paperPool)
	if err != nil {
		return err
	}
	fakeTime, err := o.runFig8Hybrid(hybridModel, hybridParams, fake, img, paperPool)
	if err != nil {
		return err
	}
	singleTime, err := o.runFig8Hybrid(hybridModel, hybridParams, calibrated, img,
		paperPool, core.WithSingleECalls(true))
	if err != nil {
		return err
	}
	fusedTime, err := o.runFig8Hybrid(hybridModel, hybridParams, calibrated, img)
	if err != nil {
		return err
	}

	o.printf("| scheme | time per image (s) |\n|---|---|\n")
	o.printf("| Encrypted (pure HE, per CRT modulus) | %.3f |\n", baselineTime.perModulus)
	o.printf("| Encrypted (pure HE, full CRT ×%d) | %.3f |\n", len(cnCfg.Moduli), baselineTime.full)
	o.printf("| EncryptSGX (single ECALL per value) | %.3f |\n", singleTime)
	o.printf("| EncryptSGX (batched hybrid) | %.3f |\n", sgxTime)
	o.printf("| EncryptFakeSGX (hybrid, no enclave cost) | %.3f |\n", fakeTime)
	o.printf("| EncryptSGX fused (this repo: activation inside the pool ECALL, map coefficient-packed across it) | %.3f |\n", fusedTime)
	saving := (baselineTime.perModulus - sgxTime) / baselineTime.perModulus * 100
	o.printf("\npaper: Encrypted 450.65 s/image, EncryptSGX 272.125 s/image (39.615%% saved), ")
	o.printf("EncryptSGX(single) +152.5 s/image, FakeSGX gap = SGX tax 31.689 s/image\n")
	o.printf("measured: hybrid saves %.1f%% vs per-modulus pure HE; single-ECALL overhead %+.3f s; SGX tax %+.3f s\n",
		saving, singleTime-sgxTime, sgxTime-fakeTime)
	return nil
}

type fig8BaselineTime struct {
	perModulus float64
	full       float64
}

func (o Options) runFig8Baseline(model *nn.Network, cfg cryptonets.Config, img *nn.Tensor) (fig8BaselineTime, error) {
	kb, ek, err := cryptonets.GenerateKeys(cfg, o.source(52))
	if err != nil {
		return fig8BaselineTime{}, err
	}
	engine, err := cryptonets.NewEngine(model, cfg, ek)
	if err != nil {
		return fig8BaselineTime{}, err
	}
	ci, err := kb.EncryptImage(img, cfg.PixelScale, o.source(53))
	if err != nil {
		return fig8BaselineTime{}, err
	}
	t := timeIt(func() {
		if _, err := engine.InferModulus(0, ci.CTs[0], ci.Channels, ci.Height, ci.Width); err != nil {
			panic(err)
		}
	}) / 1000.0
	return fig8BaselineTime{perModulus: t, full: t * float64(len(cfg.Moduli))}, nil
}

func (o Options) runFig8Hybrid(model *nn.Network, params he.Parameters, platform *sgx.Platform, img *nn.Tensor, opts ...core.EngineOption) (float64, error) {
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(o.source(54)))
	if err != nil {
		return 0, err
	}
	engine, err := core.NewEngine(svc, model, opts...)
	if err != nil {
		return 0, err
	}
	if err := engine.EncodeWeights(); err != nil {
		return 0, err
	}
	client, err := core.NewClient()
	if err != nil {
		return 0, err
	}
	// Local key install via the provisioning payload (no network).
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		return 0, err
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		return 0, err
	}
	ci, err := client.EncryptImages([]*nn.Tensor{img}, core.DefaultConfig().PixelScale)
	if err != nil {
		return 0, err
	}
	var inferErr error
	t := timeIt(func() {
		_, inferErr = engine.Infer(ci)
	}) / 1000.0
	return t, inferErr
}

func mustPrime(bits, n int) uint64 {
	q, err := ring.GenerateNTTPrime(bits, n)
	if err != nil {
		panic(err)
	}
	return q
}
