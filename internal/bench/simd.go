package bench

import (
	mrand "math/rand/v2"

	"hesgx/internal/core"
	"hesgx/internal/nn"
)

// RunSIMD measures the §VIII extension: SIMD slot batching through the
// full hybrid pipeline. The paper projects "1024 times the throughput" for
// n=1024; this experiment reports the realized amortized gain (bounded
// below n× because enclave work still touches every slot).
func (o Options) RunSIMD() error {
	o.section("§VIII extension — SIMD batched hybrid inference")
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		return err
	}
	platform, err := calibratedPlatform(o.Seed + 60)
	if err != nil {
		return err
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(o.source(61)))
	if err != nil {
		return err
	}
	rng := mrand.New(mrand.NewPCG(o.Seed, 62))

	size := 12
	if !o.Quick {
		size = 16
	}
	convOut := size - 3 + 1
	fcIn := 3 * (convOut / 2) * (convOut / 2)
	model := nn.NewNetwork(
		nn.NewConv2D(1, 3, 3, 1, rng),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(fcIn, 10, rng),
	)
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

	pixelScale := core.DefaultConfig().PixelScale
	// The paper's pooling strategy for the 2×2 window, named explicitly:
	// both engines run its two-ECALL activation → pooling pipeline.
	paperPool := core.WithPoolStrategy(core.ChoosePoolStrategy(2))
	scalarEngine, err := core.NewEngine(svc, model, paperPool)
	if err != nil {
		return err
	}
	simdEngine, err := core.NewEngine(svc, model, core.WithSIMD(true), paperPool)
	if err != nil {
		return err
	}

	img := nn.NewTensor(1, size, size)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	ciScalar, err := client.EncryptImages([]*nn.Tensor{img}, pixelScale)
	if err != nil {
		return err
	}
	scalarTime := timeIt(func() {
		if _, err := scalarEngine.Infer(ciScalar); err != nil {
			panic(err)
		}
	}) / 1000.0

	o.printf("| batch | scalar total (s) | SIMD total (s) | per-image SIMD (s) | speedup |\n|---|---|---|---|---|\n")
	batches := []int{1, 8, 64, 256}
	if o.Quick {
		batches = []int{1, 8, 32}
	}
	for _, batch := range batches {
		imgs := make([]*nn.Tensor, batch)
		for i := range imgs {
			im := nn.NewTensor(1, size, size)
			for j := range im.Data {
				im.Data[j] = rng.Float64()
			}
			imgs[i] = im
		}
		ci, err := client.EncryptImages(imgs, pixelScale)
		if err != nil {
			return err
		}
		var inferErr error
		simdTime := timeIt(func() {
			_, inferErr = simdEngine.Infer(ci)
		}) / 1000.0
		if inferErr != nil {
			return inferErr
		}
		o.printf("| %d | %.3f | %.3f | %.4f | %.1fx |\n",
			batch, scalarTime*float64(batch), simdTime, simdTime/float64(batch),
			scalarTime*float64(batch)/simdTime)
	}
	o.printf("\npaper §VIII: SIMD batching promises up to n× (=%d×) throughput; the realized gain\n", params.N)
	o.printf("saturates when per-slot enclave work dominates the fixed homomorphic cost\n")
	return nil
}
