// Package hesgx_test holds the top-level benchmark suite: one testing.B
// benchmark per table and figure of the paper's evaluation (Tables I–V,
// Figs. 3–6, 8), plus ablations for the design choices DESIGN.md calls out.
// The cmd/hesgx-bench harness produces the full sweeps and the paper-format
// tables; these benches give single-point numbers under `go test -bench`.
package hesgx_test

import (
	"context"
	mrand "math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/cryptonets"
	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
)

// fixture lazily builds the shared crypto material the benches use.
type fixture struct {
	params he.Parameters
	sk     *he.SecretKey
	pk     *he.PublicKey
	ek     *he.EvaluationKeys
	enc    *he.Encryptor
	dec    *he.Decryptor
	eval   *he.Evaluator
	scalar *encoding.ScalarEncoder

	calSvc  *core.EnclaveService // calibrated SGX costs
	zeroSvc *core.EnclaveService // FakeSGX
}

var (
	fxOnce sync.Once
	fx     *fixture
	fxErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fxOnce.Do(func() {
		fxErr = func() error {
			params, err := he.DefaultParameters(1024, 4) // the paper's §V-A setup
			if err != nil {
				return err
			}
			kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(1))
			if err != nil {
				return err
			}
			sk, pk := kg.GenKeyPair()
			enc, err := he.NewEncryptor(pk, ring.NewSeededSource(2))
			if err != nil {
				return err
			}
			dec, err := he.NewDecryptor(sk)
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
			cal, err := sgx.NewPlatform(sgx.Calibrated(), sgx.WithJitterSeed(3))
			if err != nil {
				return err
			}
			zero, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(4))
			if err != nil {
				return err
			}
			calSvc, err := core.NewEnclaveService(cal, params, core.WithKeySource(ring.NewSeededSource(5)))
			if err != nil {
				return err
			}
			zeroSvc, err := core.NewEnclaveService(zero, params, core.WithKeySource(ring.NewSeededSource(6)))
			if err != nil {
				return err
			}
			fx = &fixture{
				params: params, sk: sk, pk: pk, ek: kg.GenEvaluationKeys(sk),
				enc: enc, dec: dec, eval: eval, scalar: scalar,
				calSvc: calSvc, zeroSvc: zeroSvc,
			}
			return nil
		}()
	})
	if fxErr != nil {
		b.Fatal(fxErr)
	}
	return fx
}

// encryptBatchUnder encrypts count scalars under an enclave service's key.
func encryptBatchUnder(b *testing.B, svc *core.EnclaveService, count int) []*he.Ciphertext {
	b.Helper()
	enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewSeededSource(7))
	if err != nil {
		b.Fatal(err)
	}
	cts := make([]*he.Ciphertext, count)
	for i := range cts {
		if cts[i], err = enc.EncryptScalar(uint64(i % 4)); err != nil {
			b.Fatal(err)
		}
	}
	return cts
}

// --- Table I ---

func BenchmarkTable1KeyGenOutsideSGX(b *testing.B) {
	f := getFixture(b)
	src := ring.NewSeededSource(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kg, err := he.NewKeyGenerator(f.params, src)
		if err != nil {
			b.Fatal(err)
		}
		kg.GenKeyPair()
	}
}

func BenchmarkTable1KeyGenInsideSGX(b *testing.B) {
	f := getFixture(b)
	platform, err := sgx.NewPlatform(sgx.Calibrated(), sgx.WithJitterSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	src := ring.NewSeededSource(12)
	enclave, err := platform.Launch(sgx.Definition{
		Name:    "bench-keygen",
		Version: "1",
		ECalls: map[string]sgx.ECallFunc{
			"keygen": func(ctx *sgx.Context, _ []byte) ([]byte, error) {
				ctx.Touch(f.params.N * 8 * 4)
				kg, err := he.NewKeyGenerator(f.params, src)
				if err != nil {
					return nil, err
				}
				kg.GenKeyPair()
				return nil, nil
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enclave.ECall("keygen", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II ---

func BenchmarkTable2ImageEncrypt(b *testing.B) {
	f := getFixture(b)
	encdr, err := encoding.NewIntegerEncoder(f.params)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 28*28; p++ {
			pt, err := encdr.Encode(int64(p % 4))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.enc.Encrypt(pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table III ---

func BenchmarkTable3ResultDecrypt(b *testing.B) {
	f := getFixture(b)
	cts := make([]*he.Ciphertext, 10) // 10 class scores for one image
	for i := range cts {
		ct, err := f.enc.EncryptScalar(uint64(i % 4))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ct := range cts {
			if _, err := f.dec.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table IV ---

func BenchmarkTable4EncodeEncryptOutside(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.enc.EncryptScalar(3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4DecodeDecryptOutside(b *testing.B) {
	f := getFixture(b)
	ct, err := f.enc.EncryptScalar(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.dec.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4RefreshInsideSGX(b *testing.B) {
	// One in-enclave decrypt+encrypt round trip (the inside-SGX analogue).
	f := getFixture(b)
	cts := encryptBatchUnder(b, f.calSvc, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.calSvc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpRefresh}, cts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table V ---

func BenchmarkTable5Relinearize(b *testing.B) {
	f := getFixture(b)
	a, _ := f.enc.EncryptScalar(3)
	c, _ := f.enc.EncryptScalar(2)
	prod, err := f.eval.Mul(a, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eval.Relinearize(prod, f.ek); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5SGXRefreshSolo(b *testing.B) {
	f := getFixture(b)
	cts := encryptBatchUnder(b, f.calSvc, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.calSvc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpRefresh}, cts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5SGXRefreshBatched(b *testing.B) {
	// Amortized per-ciphertext cost with a batch of 10 per ECALL.
	f := getFixture(b)
	cts := encryptBatchUnder(b, f.calSvc, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.calSvc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpRefresh}, cts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3 ---

func BenchmarkFig3WeightEncoding(b *testing.B) {
	f := getFixture(b)
	const weights = 286 // 11 kernels of 5x5 + bias
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < weights; w++ {
			if _, err := f.eval.PrepareOperand(f.scalar.Encode(int64(w%7 - 3))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 4 ---

func benchmarkHEConv(b *testing.B, k int) {
	f := getFixture(b)
	const size = 28
	cts := make([]*he.Ciphertext, size*size)
	for i := range cts {
		ct, err := f.enc.EncryptScalar(uint64(i % 4))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	ops := make([]*he.PlainOperand, k*k)
	for i := range ops {
		op, err := f.eval.PrepareOperand(f.scalar.Encode(int64(i%5 - 2)))
		if err != nil {
			b.Fatal(err)
		}
		ops[i] = op
	}
	out := size - k + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for oy := 0; oy < out; oy++ {
			for ox := 0; ox < out; ox++ {
				var acc *he.Ciphertext
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						term, err := f.eval.MulPlainOperand(cts[(oy+ky)*size+ox+kx], ops[ky*k+kx])
						if err != nil {
							b.Fatal(err)
						}
						if acc == nil {
							acc = term
						} else if acc, err = f.eval.Add(acc, term); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	}
}

func BenchmarkFig4HEConvKernel5(b *testing.B)  { benchmarkHEConv(b, 5) }
func BenchmarkFig4HEConvKernel14(b *testing.B) { benchmarkHEConv(b, 14) }

// --- Fig. 5 ---

func BenchmarkFig5EncryptSigmoid(b *testing.B) {
	// The HE approximation path: square + relinearize per value (8×8 map).
	f := getFixture(b)
	cts := make([]*he.Ciphertext, 64)
	for i := range cts {
		ct, err := f.enc.EncryptScalar(uint64(i % 4))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ct := range cts {
			sq, err := f.eval.Square(ct)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.eval.Relinearize(sq, f.ek); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5SGXSigmoid(b *testing.B) {
	f := getFixture(b)
	cts := encryptBatchUnder(b, f.calSvc, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.calSvc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpSigmoid, InScale: 2, OutScale: 2}, cts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5FakeSGXSigmoid(b *testing.B) {
	f := getFixture(b)
	cts := encryptBatchUnder(b, f.zeroSvc, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.zeroSvc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpSigmoid, InScale: 2, OutScale: 2}, cts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6 ---

func benchmarkPool(b *testing.B, svc *core.EnclaveService, window int, div bool) {
	f := getFixture(b)
	const size = 24
	cts := encryptBatchUnder(b, svc, size*size)
	out := size / window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if div {
			sums := make([]*he.Ciphertext, out*out)
			for oy := 0; oy < out; oy++ {
				for ox := 0; ox < out; ox++ {
					var acc *he.Ciphertext
					var err error
					for ky := 0; ky < window; ky++ {
						for kx := 0; kx < window; kx++ {
							ct := cts[(oy*window+ky)*size+ox*window+kx]
							if acc == nil {
								acc = ct
							} else if acc, err = f.eval.Add(acc, ct); err != nil {
								b.Fatal(err)
							}
						}
					}
					sums[oy*out+ox] = acc
				}
			}
			if _, err := svc.Nonlinear(context.Background(), core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: uint64(window * window)}, sums); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := svc.Nonlinear(context.Background(), core.NonlinearOp{
				Kind:     core.OpPoolFull,
				Geometry: core.Geometry{Channels: 1, Height: size, Width: size, Window: window},
			}, cts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig6SGXDivWindow2(b *testing.B)      { benchmarkPool(b, getFixture(b).calSvc, 2, true) }
func BenchmarkFig6SGXDivWindow6(b *testing.B)      { benchmarkPool(b, getFixture(b).calSvc, 6, true) }
func BenchmarkFig6SGXPoolWindow2(b *testing.B)     { benchmarkPool(b, getFixture(b).calSvc, 2, false) }
func BenchmarkFig6SGXPoolWindow6(b *testing.B)     { benchmarkPool(b, getFixture(b).calSvc, 6, false) }
func BenchmarkFig6FakeSGXDivWindow2(b *testing.B)  { benchmarkPool(b, getFixture(b).zeroSvc, 2, true) }
func BenchmarkFig6FakeSGXPoolWindow2(b *testing.B) { benchmarkPool(b, getFixture(b).zeroSvc, 2, false) }

// --- Fig. 8 (reduced geometry; the harness runs the full 28×28) ---

// fig8Fixture holds the end-to-end pipelines at a reduced 12×12 geometry.
type fig8Fixture struct {
	img        *nn.Tensor
	hybridCI   *core.CipherImage
	hybrid     *core.HybridEngine
	baseline   *cryptonets.Engine
	baselineCI *cryptonets.CipherImage
}

var (
	fig8Once sync.Once
	fig8     *fig8Fixture
	fig8Err  error
)

func getFig8(b *testing.B) *fig8Fixture {
	b.Helper()
	fig8Once.Do(func() {
		fig8Err = func() error {
			rng := mrand.New(mrand.NewPCG(9, 9))
			img := nn.NewTensor(1, 12, 12)
			for i := range img.Data {
				img.Data[i] = rng.Float64()
			}
			hybridModel := nn.NewNetwork(
				nn.NewConv2D(1, 3, 3, 1, rng),
				nn.NewActivation(nn.Sigmoid),
				nn.NewPool2D(nn.MeanPool, 2),
				&nn.Flatten{},
				nn.NewFullyConnected(3*5*5, 10, rng),
			)
			baseModel := nn.NewNetwork(
				nn.NewConv2D(1, 3, 3, 1, rng),
				nn.NewActivation(nn.Square),
				nn.NewPool2D(nn.SumPool, 2),
				&nn.Flatten{},
				nn.NewFullyConnected(3*5*5, 10, rng),
			)
			params, err := he.DefaultParameters(2048, 1<<25)
			if err != nil {
				return err
			}
			platform, err := sgx.NewPlatform(sgx.Calibrated(), sgx.WithJitterSeed(13))
			if err != nil {
				return err
			}
			svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(14)))
			if err != nil {
				return err
			}
			// The paper's two-ECALL pipeline, not the fused default plan.
			engine, err := core.NewEngine(svc, hybridModel, core.WithPoolStrategy(core.ChoosePoolStrategy(2)))
			if err != nil {
				return err
			}
			if err := engine.EncodeWeights(); err != nil {
				return err
			}
			client, err := core.NewClient()
			if err != nil {
				return err
			}
			payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
			if err != nil {
				return err
			}
			if err := client.InstallProvisionPayload(payload); err != nil {
				return err
			}
			hybridCI, err := client.EncryptImages([]*nn.Tensor{img}, core.DefaultConfig().PixelScale)
			if err != nil {
				return err
			}

			cfg := cryptonets.DefaultConfig()
			cfg.N = 2048
			cfg.QBits = 56
			kb, ek, err := cryptonets.GenerateKeys(cfg, ring.NewSeededSource(15))
			if err != nil {
				return err
			}
			baseline, err := cryptonets.NewEngine(baseModel, cfg, ek)
			if err != nil {
				return err
			}
			baselineCI, err := kb.EncryptImage(img, cfg.PixelScale, ring.NewSeededSource(16))
			if err != nil {
				return err
			}
			fig8 = &fig8Fixture{
				img: img, hybridCI: hybridCI, hybrid: engine,
				baseline: baseline, baselineCI: baselineCI,
			}
			return nil
		}()
	})
	if fig8Err != nil {
		b.Fatal(fig8Err)
	}
	return fig8
}

func BenchmarkFig8HybridEndToEnd(b *testing.B) {
	f8 := getFig8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f8.hybrid.Infer(f8.hybridCI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8PureHEPerModulus(b *testing.B) {
	f8 := getFig8(b)
	ci := f8.baselineCI
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f8.baseline.InferModulus(0, ci.CTs[0], ci.Channels, ci.Height, ci.Width); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationMulSchoolbook vs BenchmarkAblationMulRNS: the exact tensor
// step of ciphertext multiplication, reference vs the RNS multiply.
func BenchmarkAblationMulSchoolbook(b *testing.B) {
	f := getFixture(b)
	slow, err := he.NewEvaluator(f.params, he.WithSchoolbookTensor())
	if err != nil {
		b.Fatal(err)
	}
	x, _ := f.enc.EncryptScalar(2)
	y, _ := f.enc.EncryptScalar(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slow.Mul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMulRNS is the evaluator's multiply: the RNS modulus-chain
// tensor product over word-size limbs.
func BenchmarkAblationMulRNS(b *testing.B) {
	f := getFixture(b)
	x, _ := f.enc.EncryptScalar(2)
	y, _ := f.enc.EncryptScalar(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eval.Mul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelinBase compares relinearization decomposition bases
// (speed vs noise tradeoff).
func benchmarkRelinBase(b *testing.B, baseBits int) {
	params, err := he.NewParameters(1024, mustPrime(b, 46, 1024), 4, baseBits)
	if err != nil {
		b.Fatal(err)
	}
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(20))
	if err != nil {
		b.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	ek := kg.GenEvaluationKeys(sk)
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(21))
	if err != nil {
		b.Fatal(err)
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := enc.EncryptScalar(2)
	y, _ := enc.EncryptScalar(3)
	prod, err := eval.Mul(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Relinearize(prod, ek); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRelinBaseW16(b *testing.B) { benchmarkRelinBase(b, 16) }
func BenchmarkAblationRelinBaseW2(b *testing.B)  { benchmarkRelinBase(b, 2) }

// BenchmarkAblationWeightMul{Scalar,TrueCxP} compare the constant-coefficient
// weight multiplication the linear kernels run against the full C×P product
// of the paper's SEAL-encoder pipeline, on the evaluator directly.
func BenchmarkAblationWeightMulScalar(b *testing.B) {
	f := getFixture(b)
	ct, _ := f.enc.EncryptScalar(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eval.MulScalar(ct, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedSum25 times one paper conv output — 25 weighted terms at
// the engine's n=2048 tier — as the per-term multiply-accumulate chain (one
// Shoup multiply and modular add per term and coefficient) and as the
// evaluator's lazy-reduction weighted-sum kernel.
func BenchmarkWeightedSum25(b *testing.B) {
	params, err := core.DefaultHybridParameters()
	if err != nil {
		b.Fatal(err)
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		b.Fatal(err)
	}
	r := params.Ring()
	s := ring.NewSampler(r, ring.NewSeededSource(25))
	rng := mrand.New(mrand.NewPCG(25, 25))
	cts := make([]*he.Ciphertext, 25)
	ws := make([]int64, 25)
	for i := range cts {
		cts[i] = he.NewCiphertext(params, 2)
		for _, p := range cts[i].Polys {
			s.Uniform(p)
		}
		ws[i] = rng.Int64N(17) - 8
	}
	lifted := make([]uint64, len(ws))
	for i, w := range ws {
		lifted[i] = params.LiftCentered(uint64((w + int64(params.T)) % int64(params.T)))
	}
	acc := he.NewCiphertext(params, 2)
	b.Run("per-term", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, ct := range cts {
				for j := range acc.Polys {
					r.MulScalarAdd(ct.Polys[j], lifted[k], acc.Polys[j])
				}
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eval.WeightedSumInto(acc, cts, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationWeightMulTrueCxP(b *testing.B) {
	f := getFixture(b)
	ct, _ := f.enc.EncryptScalar(2)
	op, err := f.eval.PrepareOperand(f.scalar.Encode(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eval.MulPlainOperand(ct, op); err != nil {
			b.Fatal(err)
		}
	}
}

func mustPrime(b *testing.B, bits, n int) uint64 {
	b.Helper()
	q, err := ring.GenerateNTTPrime(bits, n)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkSIMDBatchInference measures the §VIII extension: one SIMD engine
// pass carrying 64 images in CRT slots.
func BenchmarkSIMDBatchInference64(b *testing.B) {
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(30))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(32, 33))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 3, 3, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(3*5*5, 10, rng),
	)
	cfg := core.DefaultConfig()
	engine, err := core.NewEngine(svc, model, core.WithSIMD(true), core.WithPoolStrategy(core.ChoosePoolStrategy(2)))
	if err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		b.Fatal(err)
	}
	imgs := make([]*nn.Tensor, 64)
	for i := range imgs {
		im := nn.NewTensor(1, 12, 12)
		for j := range im.Data {
			im.Data[j] = rng.Float64()
		}
		imgs[i] = im
	}
	ci, err := client.EncryptImages(imgs, cfg.PixelScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Infer(ci); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent serving ---

// benchmarkConcurrentServing pushes `clients` simultaneous inferences
// through a serving pipeline per iteration, under calibrated SGX costs.
// Each request runs its own scalar pass and crosses the boundary once per
// enclave layer (Fig. 8's per-layer batching); transitions/inference
// reports that count.
func benchmarkConcurrentServing(b *testing.B, clients int) {
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		b.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		b.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.Calibrated(), sgx.WithJitterSeed(40))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(42, 43))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, rng),
	)
	// SGXDiv pooling keeps both non-linear layers element-wise ops.
	cfg := core.Config{PixelScale: 63, WeightScale: 16, ActScale: 256, Pool: core.PoolSGXDiv}
	engine, err := core.NewEngine(svc, model,
		core.WithScales(cfg.PixelScale, cfg.WeightScale, cfg.ActScale), core.WithPoolStrategy(cfg.Pool))
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		b.Fatal(err)
	}
	cis := make([]*core.CipherImage, clients)
	for i := range cis {
		img := nn.NewTensor(1, 8, 8)
		for j := range img.Data {
			img.Data[j] = rng.Float64()
		}
		if cis[i], err = client.EncryptImages([]*nn.Tensor{img}, cfg.PixelScale); err != nil {
			b.Fatal(err)
		}
	}
	p := serve.NewService(engine, svc,
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: clients, QueueDepth: clients}),
		serve.WithoutLanes(), // scalar passes: one engine pass per request
	)
	defer p.Close()

	before := platform.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := p.Infer(context.Background(), serve.Request{Image: cis[c]}); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	b.StopTimer()
	total := float64(b.N * clients)
	delta := platform.Snapshot().Sub(before)
	b.ReportMetric(float64(delta.Transitions())/total, "transitions/inference")
	b.ReportMetric(total/b.Elapsed().Seconds(), "inferences/sec")
}

// --- PR 6: slot-lane batched serving (images/sec at 64 concurrent clients) ---

// buildLaneServingStack assembles a full serving stack over the paper CNN
// at the default SIMD tier (n = 2048, prime t ≡ 1 mod 2n): enclave,
// engine, serve.Service, plus 64 per-client encrypted images.
func buildLaneServingStack(b *testing.B, clients int, opts ...serve.Option) (*serve.Service, []*core.CipherImage) {
	b.Helper()
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(50))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(51)))
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(52, 53))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 6, 3, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(6*5*5, 10, rng),
	)
	cfg := core.DefaultConfig()
	// SGXDiv pooling keeps both non-linear layers element-wise enclave ops.
	cfg.Pool = core.PoolSGXDiv
	engine, err := core.NewEngine(svc, model, core.WithPoolStrategy(core.PoolSGXDiv))
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		b.Fatal(err)
	}
	cis := make([]*core.CipherImage, clients)
	for i := range cis {
		img := nn.NewTensor(1, 12, 12)
		for j := range img.Data {
			img.Data[j] = rng.Float64()
		}
		if cis[i], err = client.EncryptImages([]*nn.Tensor{img}, cfg.PixelScale); err != nil {
			b.Fatal(err)
		}
	}
	service := serve.NewService(engine, svc, append([]serve.Option{
		serve.WithSchedulerConfig(serve.SchedulerConfig{Workers: 4, QueueDepth: clients}),
	}, opts...)...)
	return service, cis
}

// BenchmarkLaneServing64 is the slot-batched serving mode's headline
// number: images/sec at 64 concurrent clients on the paper CNN, scalar
// pass-per-request vs one lane-packed pass over shared ciphertext slots
// (n = 2048 ⇒ all 64 requests ride one engine pass). The asserted ≥8×
// keeps the tentpole win from regressing silently.
func BenchmarkLaneServing64(b *testing.B) {
	const clients = 64
	scalarSvc, scalarCIs := buildLaneServingStack(b, clients, serve.WithoutLanes())
	defer scalarSvc.Close()
	laneSvc, laneCIs := buildLaneServingStack(b, clients,
		serve.WithLaneConfig(serve.LaneConfig{MaxLanes: clients, MinLanes: 2, Window: 2 * time.Second}))
	defer laneSvc.Close()

	run := func(s *serve.Service, cis []*core.CipherImage) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := s.Infer(context.Background(), serve.Request{Image: cis[c]}); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}

	b.ResetTimer()
	var scalarTime, laneTime time.Duration
	for i := 0; i < b.N; i++ {
		scalarTime += run(scalarSvc, scalarCIs)
		// Collect the scalar phase's garbage outside either timed window so
		// 64 full passes of dead ciphertexts don't bill GC pauses to the
		// lane phase (or vice versa).
		runtime.GC()
		laneTime += run(laneSvc, laneCIs)
		runtime.GC()
	}
	b.StopTimer()
	total := float64(b.N * clients)
	scalarIPS := total / scalarTime.Seconds()
	laneIPS := total / laneTime.Seconds()
	speedup := laneIPS / scalarIPS
	b.ReportMetric(scalarIPS, "scalar_images/sec")
	b.ReportMetric(laneIPS, "lane_images/sec")
	b.ReportMetric(speedup, "speedup_x")
	if packed := laneSvc.Metrics.Counter("serve.lanes.packed_requests").Value(); packed != int64(b.N*clients) {
		b.Errorf("only %d of %d requests were lane-packed", packed, b.N*clients)
	}
	if speedup < 8 {
		b.Errorf("lane serving speedup %.1fx below the 8x acceptance floor (scalar %.2f img/s, lane %.2f img/s)",
			speedup, scalarIPS, laneIPS)
	}
}

func BenchmarkConcurrentServing8Direct(b *testing.B)  { benchmarkConcurrentServing(b, 8) }
func BenchmarkConcurrentServing32Direct(b *testing.B) { benchmarkConcurrentServing(b, 32) }

// --- Wire serialization ---

// benchSeededImage builds one 28×28 single-channel cipher image in the
// seeded upload form.
func benchSeededImage(b *testing.B) *core.SeededCipherImage {
	f := getFixture(b)
	senc, err := he.NewSymmetricEncryptor(f.sk, ring.NewSeededSource(90))
	if err != nil {
		b.Fatal(err)
	}
	const pixels = 28 * 28
	seeded := &core.SeededCipherImage{Channels: 1, Height: 28, Width: 28, Scale: 255,
		CTs: make([]*he.SeededCiphertext, pixels)}
	for i := 0; i < pixels; i++ {
		if seeded.CTs[i], err = senc.EncryptSeeded(f.scalar.Encode(int64(i % 256))); err != nil {
			b.Fatal(err)
		}
	}
	return seeded
}

// BenchmarkCipherImageEncode serializes a 28×28 cipher image in the seeded
// bit-packed network format; bytes/image is the upload cost.
func BenchmarkCipherImageEncode(b *testing.B) {
	seeded := benchSeededImage(b)
	b.Run("v2-seeded", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			payload, err := core.MarshalSeededCipherImage(seeded)
			if err != nil {
				b.Fatal(err)
			}
			n = len(payload)
		}
		b.ReportMetric(float64(n), "bytes/image")
	})
}

// BenchmarkCipherImageDecode is the server-side cost of the same image
// through the network decoder, per-pixel seed expansion included.
func BenchmarkCipherImageDecode(b *testing.B) {
	f := getFixture(b)
	v2, err := core.MarshalSeededCipherImage(benchSeededImage(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("v2-seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.UnmarshalCipherImageAuto(v2, f.params); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(v2)), "bytes/image")
	})
}

// --- RNS modulus-chain tensor multiply ---

// buildMulBench wires keys, an evaluator, and two scalar ciphertexts at
// ring degree n.
func buildMulBench(b *testing.B, n int) (*he.Evaluator, *he.EvaluationKeys, *he.Ciphertext, *he.Ciphertext) {
	b.Helper()
	params, err := he.DefaultParameters(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(90))
	if err != nil {
		b.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	ek := kg.GenEvaluationKeys(sk)
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(91))
	if err != nil {
		b.Fatal(err)
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		b.Fatal(err)
	}
	x, err := enc.EncryptScalar(2)
	if err != nil {
		b.Fatal(err)
	}
	y, err := enc.EncryptScalar(3)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the lazy tensor backend (RNS prime-chain search and bound
	// proofs) outside the timed window.
	if _, err := eval.Mul(x, y); err != nil {
		b.Fatal(err)
	}
	return eval, ek, x, y
}

func benchmarkMulRNS(b *testing.B, n int) {
	eval, _, x, y := buildMulBench(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Mul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkRelinRNS(b *testing.B, n int) {
	eval, ek, x, y := buildMulBench(b, n)
	prod, err := eval.Mul(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Relinearize(prod, ek); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulRNS2048(b *testing.B)   { benchmarkMulRNS(b, 2048) }
func BenchmarkMulRNS8192(b *testing.B)   { benchmarkMulRNS(b, 8192) }
func BenchmarkRelinRNS2048(b *testing.B) { benchmarkRelinRNS(b, 2048) }
func BenchmarkRelinRNS8192(b *testing.B) { benchmarkRelinRNS(b, 8192) }

// --- Rotation-keyed packed convolution (PR 9) ---

// BenchmarkPackedConvVsGather runs the full paper CNN over a 28×28 image in
// both data layouts: slot-packed (one ciphertext per channel, convolution
// and pooling as hoisted Galois rotations) and scalar (one ciphertext per
// pixel, convolution as a per-ciphertext gather of K² neighbours). Same
// parameters, same model, same enclave — the layout is the only variable.
// Reported alongside the two timings: the speedup and the ciphertexts per
// image the client round trip carries (upload + logits).
func BenchmarkPackedConvVsGather(b *testing.B) {
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(40))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(42, 43))
	model := nn.PaperCNN(rng)
	// WeightScale 8 keeps the key-switched conv noise bound positive at the
	// n=2048 SIMD tier; both layouts run the same quantization so the
	// comparison stays apples to apples.
	cfg := core.Config{PixelScale: 255, WeightScale: 8, ActScale: 256, Pool: core.PoolAuto}
	scales := core.WithScales(cfg.PixelScale, cfg.WeightScale, cfg.ActScale)
	gather, err := core.NewEngine(svc, model, scales)
	if err != nil {
		b.Fatal(err)
	}
	packed, err := core.NewEngine(svc, model, scales, core.WithPackedConv(true))
	if err != nil {
		b.Fatal(err)
	}
	if info := packed.PackedInfo(); !info.Active {
		b.Fatalf("packed plan inactive: %s", info.Reason)
	}
	client, err := core.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	if err := client.InstallProvisionPayload(payload); err != nil {
		b.Fatal(err)
	}
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	pimg, err := client.EncryptImagePacked(img, cfg.PixelScale)
	if err != nil {
		b.Fatal(err)
	}
	simg, err := client.EncryptImages([]*nn.Tensor{img}, cfg.PixelScale)
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up resolves the rotation key set once (enclave keygen, cached per
	// stride) so the measured loop times inference, not key generation.
	warm, err := packed.Infer(pimg)
	if err != nil {
		b.Fatal(err)
	}
	ctsPerImage := len(pimg.CTs) + len(warm.Logits)
	b.ResetTimer()
	// Interleave the layouts and keep per-path minima: scheduler noise only
	// inflates samples, so min-of-N is the robust per-layout estimate.
	packedMin, gatherMin := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := packed.Infer(pimg); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d < packedMin {
			packedMin = d
		}
		start = time.Now()
		if _, err := gather.Infer(simg); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d < gatherMin {
			gatherMin = d
		}
	}
	b.StopTimer()
	packedNs := float64(packedMin.Nanoseconds())
	gatherNs := float64(gatherMin.Nanoseconds())
	speedup := gatherNs / packedNs
	b.ReportMetric(packedNs, "packed_ns/op")
	b.ReportMetric(gatherNs, "gather_ns/op")
	b.ReportMetric(speedup, "speedup_x")
	b.ReportMetric(float64(ctsPerImage), "cts/image")
	if ctsPerImage > 32 {
		b.Errorf("cts/image = %d exceeds the 32 acceptance ceiling", ctsPerImage)
	}
	// The harness probes with b.N=1 first; only enforce the floor once the
	// minima rest on enough samples to be more than scheduler luck.
	if b.N >= 3 && speedup < 4 {
		b.Errorf("packed conv speedup %.2fx below the 4x acceptance floor (gather %.0f ns/op, packed %.0f ns/op)",
			speedup, gatherNs, packedNs)
	}
}
