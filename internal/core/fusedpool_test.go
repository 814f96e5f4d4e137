package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// fusedStack is one enclave, its platform (for ECALL counting) and an
// attested client, on low-lift batching-capable parameters so every
// activation kind and both layouts (scalar, SIMD/lane) run on it.
type fusedStack struct {
	platform *sgx.Platform
	svc      *EnclaveService
	client   *Client
}

func newFusedStack(t testing.TB, n int) *fusedStack {
	t.Helper()
	tm, err := SIMDBatchingModulus(n, 25)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.DefaultParametersLowLift(n, tm)
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
	return &fusedStack{platform: platform, svc: svc, client: testClient(t, svc)}
}

// fusedConfig is the benchmark's fixed-point pipeline with a given strategy.
func fusedConfig(pool PoolStrategy) Config {
	return Config{PixelScale: 63, WeightScale: 8, ActScale: 256, Pool: pool}
}

// fusedNet is conv 2×(3×3) → act → k×k pool → FC 3 over a 14×14 image: the
// 2×12×12 map behind the conv is 288 ciphertexts, above the fusion floor,
// and 12 divides by both windows under test.
func fusedNet(r *mrand.Rand, act nn.ActKind, pool nn.PoolKind, k int) *nn.Network {
	side := 12 / k
	return nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(act),
		nn.NewPool2D(pool, k),
		&nn.Flatten{},
		nn.NewFullyConnected(2*side*side, 3, r),
	)
}

// inferCounted runs one inference and returns the decrypted per-image logits
// with the ECALLs the platform counted for it.
func (s *fusedStack) inferCounted(t testing.TB, engine *HybridEngine, ci *CipherImage) ([][]int64, uint64) {
	t.Helper()
	before := s.platform.Snapshot()
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	ecalls := s.platform.Snapshot().Sub(before).ECalls
	if ci.Lanes > 1 {
		got, err := s.client.DecryptValueBatch(res.Logits, ci.Lanes)
		if err != nil {
			t.Fatal(err)
		}
		return got, ecalls
	}
	got, err := s.client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	return [][]int64{got}, ecalls
}

// TestFusedPoolMatchesTwoCallStrategies is the equivalence contract of the
// fused enclave stage: over randomized networks covering every activation,
// both pool kinds, both windows and both layouts, the default plan (one
// ECALL for the act+pool pair) and the paper's two explicit strategies (two
// ECALLs) all produce logits bit-identical to the plaintext integer oracle.
// The ECALL count is asserted from the platform, so a silent fallback to
// two calls — or a silent fusion of an explicit strategy — fails.
func TestFusedPoolMatchesTwoCallStrategies(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(13, 31))
	acts := []nn.ActKind{nn.Sigmoid, nn.ReLU, nn.Tanh, nn.LeakyReLU, nn.Square}
	pools := []nn.PoolKind{nn.MeanPool, nn.MaxPool}
	// Every activation × pool kind runs; window and layout rotate from a
	// random start so all four (window, layout) pairs are covered too.
	variant := r.IntN(4)
	for _, act := range acts {
		for _, pool := range pools {
			k, simd := 2+variant%2, variant/2 == 1
			variant = (variant + 1) % 4
			t.Run(fmt.Sprintf("%s/%s/k%d/simd=%v", act, pool, k, simd), func(t *testing.T) {
				model := fusedNet(r, act, pool, k)
				imgs := []*nn.Tensor{randomImage(r, 1, 14, 14)}
				if simd {
					imgs = append(imgs, randomImage(r, 1, 14, 14), randomImage(r, 1, 14, 14))
				}
				ci, err := s.client.EncryptImages(imgs, 63)
				if err != nil {
					t.Fatal(err)
				}
				for _, tc := range []struct {
					name   string
					pool   PoolStrategy
					ecalls uint64
				}{{"auto", PoolAuto, 1}, {"sgxpool", PoolSGXPool, 2}, {"sgxdiv", PoolSGXDiv, 2}} {
					engine, err := newHybridEngine(s.svc, model, fusedConfig(tc.pool))
					if err != nil {
						t.Fatal(err)
					}
					got, ecalls := s.inferCounted(t, engine, ci)
					if ecalls != tc.ecalls {
						t.Errorf("%s: %d ECALLs for the act+pool pair, want %d", tc.name, ecalls, tc.ecalls)
					}
					for i, img := range imgs {
						want, err := engine.ReferenceForward(img)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got[i], want) {
							t.Errorf("%s image %d: logits %v != reference %v", tc.name, i, got[i], want)
						}
					}
				}
			})
		}
	}
}

// opRecorder notes the op kinds an engine sends to the enclave. With a
// client set it also plays the key holder: before forwarding an ECALL it
// measures the noise budget of every ciphertext in the batch, keeping the
// smallest per layer label (the pprof label the engine puts on each step's
// context).
type opRecorder struct {
	next    NonlinearCaller
	kinds   []OpKind
	client  *Client
	budgets map[string]float64
}

func (o *opRecorder) Nonlinear(ctx context.Context, op NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	o.kinds = append(o.kinds, op.Kind)
	if o.client != nil {
		if o.budgets == nil {
			o.budgets = make(map[string]float64)
		}
		label, _ := pprof.Label(ctx, "hesgx_layer")
		for _, ct := range cts {
			bits, err := o.client.NoiseBudget(ct)
			if err != nil {
				return nil, err
			}
			if low, ok := o.budgets[label]; !ok || bits < low {
				o.budgets[label] = bits
			}
		}
	}
	return o.next.Nonlinear(ctx, op, cts)
}

// TestFusionOnlyWhereThePlanSaysSo pins every sequence that must keep its
// own ECALLs: an activation feeding a linear layer, a pool behind a linear
// layer, the per-value control group and a map under the fusion floor — and
// that the rotation-packed prefix follows the same plan and the same floor.
func TestFusionOnlyWhereThePlanSaysSo(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(17, 71))
	img := randomImage(r, 1, 14, 14)
	ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
	if err != nil {
		t.Fatal(err)
	}
	fused := func(e *HybridEngine) (n int) {
		for _, p := range e.PlanInfo() {
			if p.Fused {
				n++
			}
		}
		return n
	}
	check := func(t *testing.T, engine *HybridEngine, ci *CipherImage, img *nn.Tensor, wantFused int, wantECalls uint64) {
		t.Helper()
		if got := fused(engine); got != wantFused {
			t.Errorf("plan marks %d steps fused, want %d", got, wantFused)
		}
		got, ecalls := s.inferCounted(t, engine, ci)
		if ecalls != wantECalls {
			t.Errorf("%d ECALLs, want %d", ecalls, wantECalls)
		}
		want, err := engine.ReferenceForward(img)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[0], want) {
			t.Errorf("logits %v != reference %v", got[0], want)
		}
	}

	t.Run("act feeds fc", func(t *testing.T) {
		model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, r), nn.NewActivation(nn.Sigmoid),
			&nn.Flatten{}, nn.NewFullyConnected(2*12*12, 3, r))
		engine, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		check(t, engine, ci, img, 0, 1)
	})
	t.Run("conv feeds pool", func(t *testing.T) {
		model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, r), nn.NewPool2D(nn.MeanPool, 2),
			nn.NewActivation(nn.Sigmoid), &nn.Flatten{}, nn.NewFullyConnected(2*6*6, 3, r))
		engine, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		check(t, engine, ci, img, 0, 2)
		// Unfused, but a whole-map crossing the crossover rule chose: packed.
		if p := poolPlan(t, engine); p.CoeffIn < 2 || p.CoeffTail {
			t.Errorf("pool plan %+v behind a conv: want a packed crossing with scalar outputs for the activation", p)
		}
	})
	t.Run("single ecalls", func(t *testing.T) {
		cfg := fusedConfig(PoolAuto)
		cfg.SingleECalls = true
		engine, err := newHybridEngine(s.svc, fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, engine, ci, img, 0, 2*12*12+1)
		// The per-value control group stays per value at the pool, too.
		if p := poolPlan(t, engine); p.CoeffIn != 0 || p.CoeffTail {
			t.Errorf("pool plan %+v under SingleECalls: want no coefficient-packed crossing", p)
		}
	})
	t.Run("map under the floor", func(t *testing.T) {
		// tinyCNN's 2×6×6 map is 72 ciphertexts: planned as a pair, run
		// as two calls, the first one the batchable activation.
		small := tinyImage(3)
		sci, err := s.client.EncryptImages([]*nn.Tensor{small}, 63)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := newHybridEngine(s.svc, tinyCNN(9), fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		check(t, engine, sci, small, 2, 2)
		// With a window the crossover rule would hand to SGXDiv, the pair
		// still pools the whole map inside: its plan never ran SGXDiv's
		// window-sum magnitude check.
		model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, r), nn.NewActivation(nn.ReLU),
			nn.NewPool2D(nn.MeanPool, 3), &nn.Flatten{}, nn.NewFullyConnected(2*2*2, 3, r))
		if engine, err = newHybridEngine(s.svc, model, fusedConfig(PoolAuto)); err != nil {
			t.Fatal(err)
		}
		rec := &opRecorder{next: s.svc}
		engine.SetNonlinearCaller(rec)
		check(t, engine, sci, small, 2, 2)
		if len(rec.kinds) != 2 || rec.kinds[0] != OpActivation || rec.kinds[1] != OpPoolFull {
			t.Errorf("ops %v, want [activation pool_full]", rec.kinds)
		}
	})
	t.Run("packed prefix", func(t *testing.T) {
		// packedEngine plans model with PackedConv and runs one request so
		// the rotation keys exist before any ECALL is counted.
		packedEngine := func(model *nn.Network, pool PoolStrategy, img *nn.Tensor) (*HybridEngine, *CipherImage, *opRecorder) {
			t.Helper()
			cfg := fusedConfig(pool)
			cfg.PackedConv = true
			engine, err := newHybridEngine(s.svc, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info := engine.PackedInfo(); !info.Active {
				t.Fatalf("packed plan inactive: %s", info.Reason)
			}
			pci, err := s.client.EncryptImagePacked(img, 63)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Infer(pci); err != nil {
				t.Fatal(err)
			}
			rec := &opRecorder{next: s.svc}
			engine.SetNonlinearCaller(rec)
			return engine, pci, rec
		}
		twoCalls := func(rec *opRecorder) bool {
			return len(rec.kinds) == 2 && rec.kinds[0] == OpSigmoid && rec.kinds[1] == OpPoolUnpack
		}
		// conservative: on whichever ciphertexts each of the two ECALLs
		// carried, the plan's packed prediction is a lower bound.
		conservative := func(engine *HybridEngine, pci *CipherImage) {
			t.Helper()
			_, fr, measured := inferMeasured(t, engine, pci, s.client)
			if n := assertConservative(t, fr, measured); n != 2 {
				t.Errorf("%d layers crossed, want 2", n)
			}
		}

		// At the floor (2×12×12 = 288 values in 2 ciphertexts): conv
		// rotations, ONE crossing, FC tail.
		engine, pci, rec := packedEngine(fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), PoolAuto, img)
		ks0 := he.KeySwitchOps()
		check(t, engine, pci, img, 2, 1)
		if len(rec.kinds) != 1 || rec.kinds[0] != OpPoolUnpack {
			t.Errorf("ops %v, want [pool_unpack]", rec.kinds)
		}
		// Only the conv rotates: InC·(K²−1) key-switches, none for the pool.
		if got := he.KeySwitchOps() - ks0; got != 1*(3*3-1) {
			t.Errorf("%d key-switches, want the conv's 8", got)
		}
		_, fr := inferReported(t, engine, pci)
		conv, act, pool := layerOfKind(t, fr, "conv"), layerOfKind(t, fr, "act"), layerOfKind(t, fr, "pool")
		if conv.KeySwitchOps != 8 || pool.KeySwitchOps != 0 || pool.HoistedRotations != 0 {
			t.Errorf("key-switches conv %d pool %d (hoisted %d), want 8 and none", conv.KeySwitchOps, pool.KeySwitchOps, pool.HoistedRotations)
		}
		if !act.Fused || act.Transitions != 0 || !pool.Fused || pool.Transitions == 0 || pool.CtsCrossed != 2 {
			t.Errorf("act %+v / pool %+v: want a fused pair whose one ECALL carried the 2 conv outputs", act, pool)
		}
		// The same engine fuses the pair for a scalar-layout image.
		check(t, engine, ci, img, 2, 1)

		// Below it (tinyCNN: 2×6×6 = 72 values) the planned pair runs the
		// SIMD activation, then pool_unpack without Act.
		small := tinyImage(3)
		engine, spci, rec := packedEngine(tinyCNN(9), PoolAuto, small)
		check(t, engine, spci, small, 2, 2)
		if !twoCalls(rec) {
			t.Errorf("ops %v under the floor, want [sigmoid pool_unpack]", rec.kinds)
		}
		conservative(engine, spci)
		// An explicit strategy never fuses, and still sums no window under HE.
		engine, pci, rec = packedEngine(fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), PoolSGXDiv, img)
		ks0 = he.KeySwitchOps()
		check(t, engine, pci, img, 0, 2)
		if !twoCalls(rec) || he.KeySwitchOps()-ks0 != 8 {
			t.Errorf("explicit SGXDiv: ops %v, %d key-switches; want [sigmoid pool_unpack] and 8", rec.kinds, he.KeySwitchOps()-ks0)
		}
		// Unplanned, pool_unpack is predicted at a fresh ciphertext's budget.
		if info := engine.PackedInfo(); info.PoolBudgetBits <= info.ConvBudgetBits {
			t.Errorf("unfused plan predicts %.2f bits into pool_unpack, conv %.2f: want the fresh bound above it", info.PoolBudgetBits, info.ConvBudgetBits)
		}
		conservative(engine, pci)
	})
}

// TestFusedLayerPredictionIsConservative is the accountant's property on the
// fused stage: the pool layer carries the stage's one ECALL — the conv
// outputs folded g to a ciphertext in the scalar layout, the conv outputs
// themselves in the SIMD/lane layout, whose slots are taken — the plan's
// prediction for it is the budget entering that ECALL, and prediction ≤ the
// key holder's measurement of what entered holds in both layouts at both
// parameter tiers.
func TestFusedLayerPredictionIsConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("n=8192 inference skipped in short mode")
	}
	for _, n := range []int{2048, 8192} {
		s := newFusedStack(t, n)
		r := mrand.New(mrand.NewPCG(uint64(n), 5))
		model := fusedNet(r, nn.Sigmoid, nn.MeanPool, 2)
		engine, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		plan := engine.PlanInfo()
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("n%d/lanes%d", n, lanes), func(t *testing.T) {
				imgs := make([]*nn.Tensor, lanes)
				for i := range imgs {
					imgs[i] = randomImage(r, 1, 14, 14)
				}
				ci, err := s.client.EncryptImages(imgs, 63)
				if err != nil {
					t.Fatal(err)
				}
				_, fr, measured := inferMeasured(t, engine, ci, s.client)
				if len(fr.Layers) != len(plan) {
					t.Fatalf("report has %d layers, plan %d", len(fr.Layers), len(plan))
				}
				act, pool := layerOfKind(t, fr, "act"), layerOfKind(t, fr, "pool")
				if !act.Fused || act.Transitions != 0 || act.CtsCrossed != 0 {
					t.Errorf("act layer %+v: want fused, no ECALL, nothing crossed", act)
				}
				entering, ok := measured[pool.Label]
				if !pool.Fused || pool.Transitions == 0 || !ok || pool.PredictedBudgetBits == nil {
					t.Fatalf("pool layer %+v: want fused with the stage's ECALL, prediction and measurement", pool)
				}
				conv := layerOfKind(t, fr, "conv")
				if g := plan[pool.Step].CoeffIn; lanes == 1 {
					// Scalar layout: the 288 conv outputs cross g to a
					// ciphertext, predicted at the budget after that fold.
					if g < 2 || pool.CoeffIn != g || pool.CtsCrossed != (288+g-1)/g {
						t.Errorf("plan packs %d values per ciphertext; the crossing reports %d and carried %d ciphertexts, want ⌈288/g⌉",
							g, pool.CoeffIn, pool.CtsCrossed)
					}
					if *pool.PredictedBudgetBits != plan[pool.Step].PredictedBudgetBits || *pool.PredictedBudgetBits >= *conv.PredictedBudgetBits {
						t.Errorf("packed prediction %.2f bits (plan says %.2f); want the plan's, below the conv output's %.2f",
							*pool.PredictedBudgetBits, plan[pool.Step].PredictedBudgetBits, *conv.PredictedBudgetBits)
					}
				} else {
					// Lanes hold the slots: one ciphertext per map position,
					// predicted at the conv output's budget.
					if pool.CoeffIn != 1 || pool.CtsCrossed != 2*12*12 {
						t.Errorf("lane crossing reports %d values per ciphertext and carried %d, want the whole 288-ciphertext conv output",
							pool.CoeffIn, pool.CtsCrossed)
					}
					if *pool.PredictedBudgetBits != *conv.PredictedBudgetBits {
						t.Errorf("fused prediction %.2f bits; want the conv output's %.2f", *pool.PredictedBudgetBits, *conv.PredictedBudgetBits)
					}
				}
				if *pool.PredictedBudgetBits > entering {
					t.Errorf("prediction %.2f bits exceeds the measured minimum %.2f: the accountant is unsound on the fused stage",
						*pool.PredictedBudgetBits, entering)
				}
			})
		}
	}
}

// hostileEnvelope hand-builds an ECALL payload: the request header followed
// by bytes that are not a ciphertext batch, so a reply that names the
// header's fault proves the enclave refused before decoding or decrypting.
func hostileEnvelope(req nonlinearRequest) []byte {
	junk := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	var buf bytes.Buffer
	req.writeHeader(&buf, uint32(len(junk)))
	buf.Write(junk)
	return buf.Bytes()
}

// TestUnknownActivationKindIsATypedError: kind 77 used to fall through to
// the sigmoid arm. It is now refused with ErrActivationKind — by Validate on
// the untrusted side and by the enclave itself against a hand-built
// envelope, on the activation op and on both fused pool ops.
func TestUnknownActivationKindIsATypedError(t *testing.T) {
	s := newFusedStack(t, 2048)
	ci, err := s.client.EncryptImages([]*nn.Tensor{tinyImage(1)}, 63)
	if err != nil {
		t.Fatal(err)
	}
	geom := Geometry{Channels: 1, Height: 4, Width: 4, Window: 2}
	for _, op := range []NonlinearOp{
		{Kind: OpActivation, InScale: 63, OutScale: 256, Act: 77},
		{Kind: OpActivation, InScale: 63, OutScale: 256, Act: -1},
		{Kind: OpPoolFull, InScale: 63, OutScale: 256, Act: 77, Geometry: geom},
		{Kind: OpPoolMax, InScale: 63, OutScale: 256, Act: 6, Geometry: geom},
	} {
		if _, err := s.svc.Nonlinear(context.Background(), op, ci.CTs[:16]); !errors.Is(err, ErrActivationKind) {
			t.Errorf("%s with kind %d: error %v, want ErrActivationKind", op.Kind, op.Act, err)
		}
	}
	for _, name := range []string{ECallActivation, ECallPoolFull, ECallPoolMax} {
		payload := hostileEnvelope(nonlinearRequest{InScale: 63, OutScale: 256, Divisor: 1,
			Width: 4, Height: 4, Channels: 1, Window: 2, Act: 77})
		if _, err := s.svc.Enclave().ECall(name, payload); !errors.Is(err, ErrActivationKind) {
			t.Errorf("ECALL %s with kind 77: error %v, want ErrActivationKind before any decode", name, err)
		}
	}
	// The service default is checked where it applies, too.
	s.svc.SetActivation(77)
	defer s.svc.SetActivation(0)
	op := NonlinearOp{Kind: OpActivation, InScale: 63, OutScale: 256}
	if _, err := s.svc.Nonlinear(context.Background(), op, ci.CTs[:4]); !errors.Is(err, ErrActivationKind) {
		t.Errorf("default kind 77: error %v, want ErrActivationKind", err)
	}
}

// unpackRequest is a well-formed pool_unpack header for a 1×4×4 map.
var unpackRequest = nonlinearRequest{InScale: 63, OutScale: 256, Divisor: 4, Width: 4, Height: 4, Channels: 1, Window: 2, Lanes: 4, Act: 1}

// TestFusedRequestsRefused: a fused request that does not describe its
// batch, has no scale to dequantize by, or rides on an op with no
// activation stage never reaches a decryption — on pool_full, pool_max and
// their packed twin pool_unpack alike.
func TestFusedRequestsRefused(t *testing.T) {
	s := newFusedStack(t, 2048)
	ci, err := s.client.EncryptImages([]*nn.Tensor{tinyImage(2)}, 63)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	geom := Geometry{Channels: 1, Height: 4, Width: 4, Window: 2}
	fusedOp := NonlinearOp{Kind: OpPoolFull, InScale: 63, OutScale: 256, Act: int(nn.Sigmoid), Geometry: geom}
	if _, err := s.svc.Nonlinear(ctx, fusedOp, ci.CTs[:16]); err != nil {
		t.Fatalf("well-formed fused request refused: %v", err)
	}
	if _, err := s.svc.Nonlinear(ctx, fusedOp, ci.CTs[:15]); err == nil {
		t.Error("fused request with 15 ciphertexts for a 1×4×4 map accepted")
	}

	for _, op := range []NonlinearOp{
		{Kind: OpPoolFull, OutScale: 256, Act: 1, Geometry: geom},
		{Kind: OpPoolMax, InScale: 63, Act: 1, Geometry: geom},
		{Kind: OpSigmoid, InScale: 63, OutScale: 256, Act: 2},
		{Kind: OpPoolDivide, InScale: 63, OutScale: 256, Divisor: 4, Act: 1},
		{Kind: OpRefresh, InScale: 63, OutScale: 256, Act: 1},
		{Kind: OpLanePack, InScale: 63, OutScale: 256, Lanes: 2, Act: 1},
		{Kind: OpLaneDemux, InScale: 63, OutScale: 256, Lanes: 2, Act: 1},
		{Kind: OpPoolUnpack, OutScale: 256, Divisor: 4, Lanes: 4, Act: 1, Geometry: geom},
	} {
		if err := op.Validate(); err == nil {
			t.Errorf("%s with Act %d, scales %d/%d passed Validate", op.Kind, op.Act, op.InScale, op.OutScale)
		}
		if _, err := s.svc.Nonlinear(ctx, op, ci.CTs[:16]); err == nil {
			t.Errorf("%s with Act %d, scales %d/%d crossed the boundary", op.Kind, op.Act, op.InScale, op.OutScale)
		}
	}

	// NonlinearOp.request turns a zero scale into 1, so the enclave's own
	// check needs a hand-built envelope; same for a geometry whose product
	// would wrap.
	for name, req := range map[string]nonlinearRequest{
		"zero in-scale":  {OutScale: 256, Divisor: 1, Width: 4, Height: 4, Channels: 1, Window: 2, Act: 1},
		"zero out-scale": {InScale: 63, Divisor: 1, Width: 4, Height: 4, Channels: 1, Window: 2, Act: 1},
		"wrapping map":   {InScale: 63, OutScale: 256, Divisor: 1, Width: 1 << 31, Height: 1 << 31, Channels: 4, Window: 1, Act: 1},
	} {
		_, err := s.svc.Enclave().ECall(ECallPoolFull, hostileEnvelope(req))
		if err == nil || bytes.Contains([]byte(err.Error()), []byte("batch")) {
			t.Errorf("%s: error %v, want a refusal naming the envelope before the batch is decoded", name, err)
		}
	}
	if _, err := s.svc.Enclave().ECall(ECallSigmoid, hostileEnvelope(nonlinearRequest{OutScale: 256, Divisor: 1})); err == nil {
		t.Error("sigmoid ECALL accepted a zero in-scale")
	}

	// The coefficient-packed crossing belongs to the scalar whole-map pools.
	// Validate refuses its two fields everywhere else; the enclave refuses
	// them from the header, before the hostile batch behind it is decoded.
	for _, op := range []NonlinearOp{
		{Kind: OpSigmoid, InScale: 63, OutScale: 256, CoeffIn: 2},
		{Kind: OpActivation, InScale: 63, OutScale: 256, Act: 1, CoeffIn: 1},
		{Kind: OpPoolDivide, Divisor: 4, CoeffIn: 4},
		{Kind: OpRefresh, CoeffIn: 2},
		{Kind: OpLanePack, Lanes: 2, CoeffIn: 2},
		{Kind: OpLaneDemux, Lanes: 2, CoeffIn: 2},
		{Kind: OpPoolUnpack, Divisor: 4, Lanes: 4, Geometry: geom, CoeffIn: 2},
		{Kind: OpPoolFull, Geometry: geom, CoeffIn: -1},
		{Kind: OpPoolFull, Geometry: geom, SIMD: true, CoeffIn: 2},
		{Kind: OpPoolMax, Geometry: geom, SIMD: true, CoeffOut: true},
		{Kind: OpSigmoid, InScale: 63, OutScale: 256, CoeffOut: true},
	} {
		if err := op.Validate(); err == nil {
			t.Errorf("%s (SIMD %v) with CoeffIn %d, CoeffOut %v passed Validate", op.Kind, op.SIMD, op.CoeffIn, op.CoeffOut)
		}
		if _, err := s.svc.Nonlinear(ctx, op, ci.CTs[:16]); err == nil {
			t.Errorf("%s (SIMD %v) with CoeffIn %d, CoeffOut %v crossed the boundary", op.Kind, op.SIMD, op.CoeffIn, op.CoeffOut)
		}
	}
	pool := nonlinearRequest{InScale: 63, OutScale: 256, Divisor: 1, Width: 4, Height: 4, Channels: 1, Window: 2, Act: 1}
	withPool := func(edit func(*nonlinearRequest)) nonlinearRequest {
		req := pool
		edit(&req)
		return req
	}
	for name, tc := range map[string]struct {
		req  nonlinearRequest
		says string
	}{
		"g > n":             {withPool(func(r *nonlinearRequest) { r.CoeffIn = 2049 }), "2049 values per ciphertext exceed 2048"},
		"g with SIMD":       {withPool(func(r *nonlinearRequest) { r.CoeffIn, r.SIMD = 2, 1 }), "but this batch (SIMD 1) holds one"},
		"count != ⌈chw/g⌉":  {withPool(func(r *nonlinearRequest) { r.CoeffIn = 3 }), "does not hold the 6 ciphertexts"},
		"count != chw":      {pool, "does not hold the 16 ciphertexts"},
		"coefficients > n":  {withPool(func(r *nonlinearRequest) { r.Channels, r.CoeffOut = 513, 1 }), "pooled map 513x2x2 exceeds 2048 plaintext coefficients"},
		"CoeffOut and SIMD": {withPool(func(r *nonlinearRequest) { r.CoeffOut, r.SIMD = 1, 1 }), "no coefficient-packed output"},
	} {
		for _, ecall := range []string{ECallPoolFull, ECallPoolMax} {
			if _, err := s.svc.Enclave().ECall(ecall, hostileEnvelope(tc.req)); err == nil || !strings.Contains(err.Error(), tc.says) {
				t.Errorf("%s %s: error %v, want a refusal saying %q before the batch is decoded", ecall, name, err, tc.says)
			}
		}
	}
	for _, ecall := range []string{ECallSigmoid, ECallActivation, ECallPoolDivide, ECallPoolUnpack} {
		req := unpackRequest
		req.CoeffIn = 2
		if _, err := s.svc.Enclave().ECall(ecall, hostileEnvelope(req)); err == nil || !strings.Contains(err.Error(), "but this batch (SIMD 0) holds one") {
			t.Errorf("%s with 2 values per ciphertext: error %v, want the layout refusal", ecall, err)
		}
	}

	// pool_unpack takes the same activation fields and refuses the same
	// faults, plus those of its own geometry — all of them from the header
	// alone: the hostile batch behind it claims 2^32−1 ciphertexts and would
	// fail to decode.
	unpack := unpackRequest
	with := func(edit func(*nonlinearRequest)) nonlinearRequest {
		req := unpack
		edit(&req)
		return req
	}
	for name, tc := range map[string]struct {
		req  nonlinearRequest
		want error
		says string
	}{
		"unknown kind":      {with(func(r *nonlinearRequest) { r.Act = 77 }), ErrActivationKind, "kind 77"},
		"zero in-scale":     {with(func(r *nonlinearRequest) { r.InScale = 0 }), ErrPoolUnpackRequest, "zero scale"},
		"zero out-scale":    {with(func(r *nonlinearRequest) { r.OutScale = 0 }), ErrPoolUnpackRequest, "zero scale"},
		"batch != channels": {unpack, ErrPoolUnpackRequest, "batch does not hold"},
		"coefficients > n":  {with(func(r *nonlinearRequest) { r.Channels, r.CoeffOut = 513, 1 }), ErrPoolUnpackRequest, "plaintext coefficients"},
		"wrapping channels": {with(func(r *nonlinearRequest) { r.Channels, r.CoeffOut = 1<<31, 1 }), ErrPoolUnpackRequest, "plaintext coefficients"},
		"map leaves row 0":  {with(func(r *nonlinearRequest) { r.Height, r.Lanes = 34, 32 }), ErrPoolUnpackRequest, "exceeds row length"},
		"wrapping map":      {with(func(r *nonlinearRequest) { r.Width, r.Height, r.Lanes = 1<<31, 1<<31, 1<<31 }), ErrPoolUnpackRequest, "exceeds row length"},
	} {
		_, err := s.svc.Enclave().ECall(ECallPoolUnpack, hostileEnvelope(tc.req))
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("pool_unpack %s: error %v, want %v naming %q before the batch is decoded", name, err, tc.want, tc.says)
		}
	}
}

// A model file can carry any integer as an activation kind; the planner
// refuses it with the same typed error instead of planning a sigmoid.
func TestPlannerRejectsUnknownActivation(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(1, 2))
	model := fusedNet(r, nn.ActKind(9), nn.MeanPool, 2)
	if _, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto)); !errors.Is(err, ErrActivationKind) {
		t.Fatalf("planner error %v, want ErrActivationKind", err)
	}
}
