package core

import (
	"bytes"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// packedTestConfig is the paper-CNN config for the packed path: WeightScale
// 8 keeps the rotation-keyed conv's key-switched noise bound positive at
// the n=2048 SIMD tier (the packed planner rejects WeightScale 32 — the
// key-switch term times a ~100-strong kernel ℓ1 exhausts the 30-bit
// budget).
func packedTestConfig() Config {
	return Config{PixelScale: 255, WeightScale: 8, ActScale: 256, Pool: PoolAuto, PackedConv: true}
}

func packedTestService(t testing.TB, seed uint64) *EnclaveService {
	t.Helper()
	params, err := DefaultSIMDParameters()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// The headline equivalence: the full paper CNN over a slot-packed 28×28
// image must produce logits bit-identical to the plaintext integer oracle
// (and hence to the scalar-layout pipeline, which other tests pin to the
// same oracle) — rotations, hoisting, and the pool-unpack ECALL change the
// cost, never the integers.
func TestPackedPaperCNNMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size packed CNN test skipped in short mode")
	}
	svc := packedTestService(t, 3)
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(7, 11))
	model := nn.PaperCNN(r)
	cfg := packedTestConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := engine.PackedInfo()
	if !info.Active {
		t.Fatalf("packed plan inactive: %s", info.Reason)
	}
	if info.ConvBudgetBits <= 0 || info.PoolBudgetBits <= 0 {
		t.Fatalf("packed noise budgets not positive: conv %.2f pool %.2f", info.ConvBudgetBits, info.PoolBudgetBits)
	}
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.CTs) != ci.Channels {
		t.Fatalf("packed upload has %d cts for %d channels", len(ci.CTs), ci.Channels)
	}
	ks0 := he.KeySwitchOps()
	hr0 := he.HoistedRotations()
	res, fr := inferReported(t, engine, ci)
	// The whole pool → flatten → FC boundary must have been one
	// coefficient-packed ciphertext, not a silent scalar unpack.
	assertTail(t, fr, true, 864)
	// The packed path must actually have run: 24 conv rotations plus 3
	// pool rotations per channel, most of them amortized on a hoisted
	// decomposition.
	if got := he.KeySwitchOps() - ks0; got == 0 {
		t.Fatal("no key-switch ops recorded; packed path silently fell back")
	}
	if got := he.HoistedRotations() - hr0; got == 0 {
		t.Fatal("no hoisted rotations recorded; hoisting not exercised")
	}
	// The §V claim this PR implements: ciphertexts per image collapse from
	// C·H·W to a handful. 1 upload + 10 logits for the paper CNN.
	if total := len(ci.CTs) + len(res.Logits); total > 32 {
		t.Fatalf("cts/image = %d, want ≤ 32", total)
	}
	got, err := client.DecryptValues(res.Logits)
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
			t.Fatalf("logit %d: packed %d != reference %d", i, got[i], want[i])
		}
	}
	budget, err := client.NoiseBudget(res.Logits[0])
	if err != nil {
		t.Fatal(err)
	}
	if budget < 2 {
		t.Fatalf("final noise budget %.1f too thin for reliable decryption", budget)
	}
}

// A scalar image through a PackedConv engine must keep the scalar layout
// and still match the oracle — the config switch gates the layout, the
// image chooses it.
func TestPackedEngineScalarImageUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size CNN test skipped in short mode")
	}
	svc := packedTestService(t, 5)
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(17, 19))
	model := nn.PaperCNN(r)
	cfg := packedTestConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	ci, err := client.encryptImageScalar(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	ks0 := he.KeySwitchOps()
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	if got := he.KeySwitchOps() - ks0; got != 0 {
		t.Fatalf("scalar image triggered %d key-switch ops", got)
	}
	got, err := client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: scalar %d != reference %d", i, got[i], want[i])
		}
	}
}

// Planner fallbacks: every unsupported combination must record a reason and
// reject slot-packed images instead of silently computing garbage.
func TestPackedPlannerFallbacks(t *testing.T) {
	r := mrand.New(mrand.NewPCG(23, 29))

	t.Run("non-batching modulus", func(t *testing.T) {
		params, err := DefaultHybridParameters()
		if err != nil {
			t.Fatal(err)
		}
		platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		engine, err := newHybridEngine(svc, nn.PaperCNN(r), packedTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		info := engine.PackedInfo()
		if info.Active || info.Reason == "" {
			t.Fatalf("expected inactive plan with reason, got %+v", info)
		}
	})

	t.Run("weight scale exhausts budget", func(t *testing.T) {
		svc := packedTestService(t, 11)
		cfg := packedTestConfig()
		cfg.WeightScale = 512
		engine, err := newHybridEngine(svc, nn.PaperCNN(r), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if info := engine.PackedInfo(); info.Active {
			t.Fatalf("WeightScale 512 should exhaust the packed conv noise bound, got %+v", info)
		}
	})

	t.Run("max pool prefix", func(t *testing.T) {
		svc := packedTestService(t, 13)
		model := nn.NewNetwork(
			nn.NewConv2D(1, 6, 5, 1, r),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MaxPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(864, 10, r),
		)
		engine, err := newHybridEngine(svc, model, packedTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if info := engine.PackedInfo(); info.Active {
			t.Fatal("max pooling cannot run as rotations; plan must fall back")
		}
	})

	t.Run("packed image without plan", func(t *testing.T) {
		svc := packedTestService(t, 15)
		client := testClient(t, svc)
		cfg := packedTestConfig()
		cfg.PackedConv = false
		engine, err := newHybridEngine(svc, nn.PaperCNN(r), cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := nn.NewTensor(1, 28, 28)
		ci, err := client.EncryptImagePacked(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Infer(ci); err == nil {
			t.Fatal("packed image accepted by an engine without a packed plan")
		}
	})
}

// The planner's rotation set must be minimal: the pool offsets are a subset
// of the conv taps for the paper CNN, so a 5×5 window plus 2×2 pooling at
// stride 28 needs exactly 24 keys.
func TestPackedRotationSetMinimal(t *testing.T) {
	svc := packedTestService(t, 21)
	r := mrand.New(mrand.NewPCG(31, 37))
	engine, err := newHybridEngine(svc, nn.PaperCNN(r), packedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if engine.packed == nil {
		t.Fatalf("packed plan inactive: %s", engine.packedReason)
	}
	steps := engine.packed.rotationSteps(28)
	if len(steps) != 24 {
		t.Fatalf("rotation set has %d steps, want 24: %v", len(steps), steps)
	}
	seen := map[int]struct{}{}
	for _, s := range steps {
		if s == 0 {
			t.Fatal("identity rotation in the key set")
		}
		if _, dup := seen[s]; dup {
			t.Fatalf("duplicate rotation step %d", s)
		}
		seen[s] = struct{}{}
	}
	for _, want := range []int{1, 28, 29} { // pool offsets ride on conv taps
		if _, ok := seen[want]; !ok {
			t.Fatalf("pool offset %d missing from rotation set", want)
		}
	}
}

// Installed (uploaded) Galois keys must satisfy the engine without an
// enclave round trip, and mismatched parameters must be rejected.
func TestInstallGaloisKeys(t *testing.T) {
	svc := packedTestService(t, 25)
	r := mrand.New(mrand.NewPCG(41, 43))
	engine, err := newHybridEngine(svc, nn.PaperCNN(r), packedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if engine.packed == nil {
		t.Fatalf("packed plan inactive: %s", engine.packedReason)
	}
	gk, err := svc.GaloisKeys(engine.packed.rotationSteps(28), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.InstallGaloisKeys(gk); err != nil {
		t.Fatal(err)
	}
	got, err := engine.galoisKeysFor(28)
	if err != nil {
		t.Fatal(err)
	}
	if got != gk {
		t.Fatal("resolved key set is not the installed one")
	}
	if err := engine.InstallGaloisKeys(nil); err == nil {
		t.Fatal("nil key set accepted")
	}
}

// The v2 wire format round-trips the slot-packed layout; v1 cannot carry it.
func TestPackedImageWireRoundTrip(t *testing.T) {
	svc := packedTestService(t, 27)
	client := testClient(t, svc)
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = float64(i) / 64
	}
	ci, err := client.EncryptImagePacked(img, 255)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCipherImagePacked(&buf, ci); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	got, ver, err := UnmarshalCipherImageAuto(b, client.Params)
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireV2 {
		t.Fatalf("wire version %d, want v2", ver)
	}
	if !got.Packed || len(got.CTs) != 1 || got.Height != 8 || got.Width != 8 {
		t.Fatalf("round trip lost the packed layout: packed=%v cts=%d %dx%d",
			got.Packed, len(got.CTs), got.Height, got.Width)
	}
	if _, err := MarshalCipherImage(ci); err == nil {
		t.Fatal("v1 format accepted a slot-packed image")
	}
	// A forged count (pixel count with the slot-packed flag) must be
	// rejected by the bounded decoder.
	forged := append([]byte(nil), b...)
	putU32(forged[25:], uint32(ci.Channels*ci.Height*ci.Width))
	if _, _, err := UnmarshalCipherImageAuto(forged, client.Params); err == nil {
		t.Fatal("forged element count accepted")
	}
}
