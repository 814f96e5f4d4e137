package core

import (
	"bytes"
	"context"
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"sync"
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
// same oracle) — rotations, hoisting, and the one pool-unpack ECALL that
// activates and pools the conv map change the cost, never the integers.
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
	// The first packed request also generates the rotation keys.
	if _, err := engine.Infer(ci); err != nil {
		t.Fatal(err)
	}
	rec := &opRecorder{next: svc}
	engine.SetNonlinearCaller(rec)
	ks0 := he.KeySwitchOps()
	hr0 := he.HoistedRotations()
	res, fr := inferReported(t, engine, ci)
	// The whole pool → flatten → FC boundary must have been one
	// coefficient-packed ciphertext, not a silent scalar unpack.
	assertTail(t, fr, true, 864)
	// The fused stage must have run: the 6×24×24 map is far above the floor,
	// so the request crosses into the enclave exactly once.
	act, pool := layerOfKind(t, fr, "act"), layerOfKind(t, fr, "pool")
	if len(rec.kinds) != 1 || rec.kinds[0] != OpPoolUnpack || !act.Fused || !pool.Fused || act.Transitions != 0 {
		t.Fatalf("ops %v, act fused=%v (%d transitions), pool fused=%v: want one fused pool_unpack ECALL",
			rec.kinds, act.Fused, act.Transitions, pool.Fused)
	}
	// The packed path must actually have run: the conv's 24 rotations, all
	// but one amortized on a hoisted decomposition — and none for the pool.
	if got := he.KeySwitchOps() - ks0; got != 24 {
		t.Fatalf("%d key-switch ops recorded, want the conv's 24", got)
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

// The planner's rotation set must be minimal: pooling happens on plaintext
// inside the enclave, so a 5×5 conv window at stride 28 needs exactly its 24
// non-identity taps.
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
	for _, want := range []int{1, 28, 4*28 + 4} {
		if _, ok := seen[want]; !ok {
			t.Fatalf("conv tap %d missing from rotation set", want)
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

// Every wire client uploads the same rotation key set (they all hold the
// enclave-issued secret key): the engine must keep one copy, not one per
// connection, and keep resolving to the set that covered first.
func TestGaloisKeysRetention(t *testing.T) {
	svc := packedTestService(t, 26)
	engine, err := newHybridEngine(svc, tinyCNN(3), packedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	steps := engine.packed.rotationSteps(8)
	first, err := svc.GaloisKeys(steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.InstallGaloisKeys(first); err != nil {
		t.Fatal(err)
	}
	resolved, err := engine.galoisKeysFor(8)
	if err != nil || resolved != first {
		t.Fatalf("resolved %p (err %v), want the installed set %p", resolved, err, first)
	}
	blob, err := he.MarshalGaloisKeys(first)
	if err != nil {
		t.Fatal(err)
	}
	// 50 uploads from 5 connections at once, racing requests that resolve
	// keys. Each upload is its own object off the wire, and is acknowledged.
	var wg sync.WaitGroup
	for conn := 0; conn < 5; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				gk, err := he.UnmarshalGaloisKeys(blob)
				if err != nil {
					t.Error(err)
					return
				}
				if err := engine.InstallGaloisKeys(gk); err != nil {
					t.Errorf("upload refused: %v", err)
				}
				if got, err := engine.galoisKeysFor(8); err != nil || got != first {
					t.Errorf("resolved %p (err %v) during the uploads, want %p", got, err, first)
				}
			}
		}()
	}
	wg.Wait()
	// A subset of an installed set is redundant too.
	sub, err := svc.GaloisKeys(steps[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.InstallGaloisKeys(sub); err != nil {
		t.Fatal(err)
	}
	if n := len(engine.packed.installed); n != 1 {
		t.Fatalf("%d key sets retained after 52 uploads, want 1", n)
	}
	if resolved, err = engine.galoisKeysFor(8); err != nil || resolved != first {
		t.Fatalf("resolved %p (err %v) after the redundant uploads, want %p", resolved, err, first)
	}
	// A set that adds an element, or uses another decomposition base, is kept.
	wider, err := svc.GaloisKeys(append([]int{3}, steps...), 0)
	if err != nil {
		t.Fatal(err)
	}
	otherBase, err := svc.GaloisKeys(steps, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, gk := range []*he.GaloisKeys{wider, otherBase} {
		if err := engine.InstallGaloisKeys(gk); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(engine.packed.installed); n != 3 {
		t.Fatalf("%d key sets retained, want 3 (a superset and another base are not redundant)", n)
	}
	if resolved, err = engine.galoisKeysFor(8); err != nil || resolved != first {
		t.Fatalf("resolved %p (err %v), want the first covering set %p", resolved, err, first)
	}
}

// The pool_unpack contract on its own: a slot-packed map at a slot stride
// wider than the map goes in, the enclave activates (when asked), sums and
// divides in plaintext with referencePool's arithmetic, and the pooled map
// comes out in either layout — for every activation kind and for none.
func TestPoolUnpackActivatesSumsAndDivides(t *testing.T) {
	svc := packedTestService(t, 28)
	client := testClient(t, svc)
	codec, err := client.packedCodec()
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(5, 8))
	const c, h, w, k, stride = 3, 6, 9, 3, 11
	const inScale, outScale = 2040, 256
	tmod := int64(svc.Params().T)
	for act := nn.ActKind(0); act <= nn.Square; act++ {
		vals := make([]int64, c*h*w)
		cts := make([]*he.Ciphertext, c)
		for ch := range cts {
			slots := make([]int64, (h-1)*stride+w)
			for i := range slots {
				slots[i] = int64(r.IntN(99999)) - 50000 // off-map slots hold junk the enclave must skip
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := int64(r.IntN(3*inScale)) - 3*inScale/2
					vals[(ch*h+y)*w+x], slots[y*stride+x] = v, v
				}
			}
			pt, err := codec.Encode(slots)
			if err != nil {
				t.Fatal(err)
			}
			if cts[ch], err = client.enc.Encrypt(pt); err != nil {
				t.Fatal(err)
			}
		}
		op := NonlinearOp{Kind: OpPoolUnpack, Divisor: k * k, Lanes: stride,
			Geometry: Geometry{Channels: c, Height: h, Width: w, Window: k}}
		if act != 0 {
			op.Act, op.InScale, op.OutScale = int(act), inScale, outScale
			applyActivation(act, vals, inScale, outScale)
		}
		want, err := referencePool(vals, c, h, w, k, nn.MeanPool)
		if err != nil {
			t.Fatal(err)
		}
		for _, coeffOut := range []bool{false, true} {
			op.CoeffOut = coeffOut
			out, err := svc.Nonlinear(context.Background(), op, cts)
			if err != nil {
				t.Fatalf("act %d coeffOut=%v: %v", act, coeffOut, err)
			}
			var got []int64
			if coeffOut {
				if len(out) != 1 {
					t.Fatalf("coefficient output returned %d cts, want 1", len(out))
				}
				pt, err := client.dec.Decrypt(out[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, cf := range pt.Poly.Coeffs[:len(want)] {
					v := int64(cf)
					if v > tmod/2 {
						v -= tmod
					}
					got = append(got, v)
				}
			} else if got, err = client.DecryptValues(out); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("act %d coeffOut=%v: pooled %v, want %v", act, coeffOut, got, want)
			}
		}
	}
}

// TestPackedFusedRandomNetworks is the equivalence contract of the packed
// prefix as one crossing: randomized small networks — channels, kernel, pool
// window, FC width, every activation kind, maps on both sides of the fusion
// floor, the coefficient tail and (an activation behind the pool) the scalar
// unpack — give packed logits == plaintext oracle == scalar-layout encrypted
// run, with the ECALL count read from the platform so neither a silent
// two-call fallback above the floor nor a fusion below it passes.
func TestPackedFusedRandomNetworks(t *testing.T) {
	s := newFusedStack(t, 2048)
	cfg := fusedConfig(PoolAuto)
	cfg.PackedConv = true
	r := mrand.New(mrand.NewPCG(19, 97))
	for variant, act := 0, nn.Sigmoid; act <= nn.Square; act++ {
		for _, above := range []bool{false, true} {
			variant++
			var inC, outC, k, window, m int
			for ok := false; !ok; ok = (outC*window*m*window*m >= fusedStageMinValues) == above {
				inC, outC = 1+r.IntN(2), 1+r.IntN(4)
				k, window, m = 2+r.IntN(3), 2+r.IntN(2), 2+r.IntN(4)
			}
			side, fcIn, fcOut := k-1+window*m, outC*m*m, 1+r.IntN(5)
			coeff := variant%3 != 0
			cfg.Workers = (variant % 2) * 3
			name := fmt.Sprintf("%s/ch%dto%d/k%d/pool%d/side%d/fc%dto%d/above=%v/coeff=%v",
				act, inC, outC, k, window, side, fcIn, fcOut, above, coeff)
			t.Run(name, func(t *testing.T) {
				layers := []nn.Layer{nn.NewConv2D(inC, outC, k, 1, r), nn.NewActivation(act), nn.NewPool2D(nn.MeanPool, window)}
				if !coeff {
					layers = append(layers, nn.NewActivation(nn.Sigmoid))
				}
				model := nn.NewNetwork(append(layers, &nn.Flatten{}, nn.NewFullyConnected(fcIn, fcOut, r))...)
				engine, err := newHybridEngine(s.svc, model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if info := engine.PackedInfo(); !info.Active || info.CoeffTail != coeff {
					t.Fatalf("plan %+v, want an active prefix with coefficient tail %v", info, coeff)
				}
				img := randomImage(r, inC, side, side)
				pci, err := s.client.EncryptImagePacked(img, cfg.PixelScale)
				if err != nil {
					t.Fatal(err)
				}
				// The first packed request also generates the rotation keys.
				if _, err := engine.Infer(pci); err != nil {
					t.Fatal(err)
				}
				before := s.platform.Snapshot()
				res, fr := inferReported(t, engine, pci)
				ecalls := s.platform.Snapshot().Sub(before).ECalls
				want := uint64(2)
				if above {
					want = 1
				}
				if !coeff {
					want++ // the activation behind the pool
				}
				if pool := fr.Layers[2]; ecalls != want || pool.Fused != above {
					t.Errorf("%d ECALLs, pool fused=%v; want %d and %v", ecalls, pool.Fused, want, above)
				}
				if pool, fc := fr.Layers[2], layerOfKind(t, fr, "fc"); pool.CoeffTail != coeff || (fc.CtsIn == 1) != coeff {
					t.Errorf("pool coeff_tail=%v, fc consumed %d cts; want coefficient tail %v", pool.CoeffTail, fc.CtsIn, coeff)
				}
				assertLogits(t, s.client, engine, img, res.Logits)

				scalar, err := s.client.encryptImageScalar(img, cfg.PixelScale)
				if err != nil {
					t.Fatal(err)
				}
				sres, err := engine.Infer(scalar)
				if err != nil {
					t.Fatal(err)
				}
				assertLogits(t, s.client, engine, img, sres.Logits)
			})
		}
	}
}

// The network encoding round-trips the slot-packed layout.
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
	// A forged count (pixel count with the slot-packed flag) must be
	// rejected by the bounded decoder.
	forged := append([]byte(nil), b...)
	putU32(forged[25:], uint32(ci.Channels*ci.Height*ci.Width))
	if _, _, err := UnmarshalCipherImageAuto(forged, client.Params); err == nil {
		t.Fatal("forged element count accepted")
	}
}
