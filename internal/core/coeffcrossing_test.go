package core

import (
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"strings"
	"testing"

	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/sgx"
)

// poolPlan returns the plan entry of the engine's first pool step.
func poolPlan(t testing.TB, engine *HybridEngine) PlanStepInfo {
	t.Helper()
	for _, p := range engine.PlanInfo() {
		if p.Kind == "pool" {
			return p
		}
	}
	t.Fatal("plan has no pool step")
	return PlanStepInfo{}
}

// firstPool returns the report's first pool layer (layerOfKind returns the last).
func firstPool(t testing.TB, fr *report.FlightReport) report.Layer {
	t.Helper()
	for _, l := range fr.Layers {
		if l.Kind == "pool" {
			return l
		}
	}
	t.Fatal("flight report has no pool layer")
	return report.Layer{}
}

// inferExact runs one traced inference, checks the logits against the
// plaintext oracle and returns them with the flight report and ECALL count.
func (s *fusedStack) inferExact(t testing.TB, engine *HybridEngine, ci *CipherImage, img *nn.Tensor) ([]int64, *report.FlightReport, uint64) {
	t.Helper()
	before := s.platform.Snapshot()
	res, fr := inferReported(t, engine, ci)
	ecalls := s.platform.Snapshot().Sub(before).ECalls
	got, err := s.client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("logits %v != reference %v", got, want)
	}
	return got, fr, ecalls
}

// inferConservative is inferExact with the key holder between the engine and
// the enclave: it also checks every crossing's prediction against the budget
// measured on what crossed.
func (s *fusedStack) inferConservative(t testing.TB, engine *HybridEngine, ci *CipherImage, img *nn.Tensor) ([]int64, *report.FlightReport, uint64) {
	t.Helper()
	probe := &opRecorder{next: engine.caller, client: s.client}
	engine.SetNonlinearCaller(probe)
	defer engine.SetNonlinearCaller(probe.next)
	got, fr, ecalls := s.inferExact(t, engine, ci, img)
	assertConservative(t, fr, probe.budgets)
	return got, fr, ecalls
}

// TestCoeffCrossingRandomNetworks is the equivalence contract of the
// coefficient-packed pool crossing: over randomized networks covering every
// activation and both pool kinds — with the window, the side of the fusion
// floor and the shape behind the pool (flatten → FC, which takes the pooled
// map as one ciphertext, or another conv, which needs it scalar) rotating so
// all eight combinations run — the default plan's logits equal the plaintext
// oracle's and the same network's under explicit PoolSGXPool, which crosses
// per value. The ciphertexts that crossed are counted from the flight report,
// so a silent fall back to one value per ciphertext fails.
func TestCoeffCrossingRandomNetworks(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(19, 83))
	acts := []nn.ActKind{nn.Sigmoid, nn.ReLU, nn.Tanh, nn.LeakyReLU, nn.Square}
	pools := []nn.PoolKind{nn.MeanPool, nn.MaxPool}
	variant := r.IntN(8)
	for _, act := range acts {
		for _, pool := range pools {
			window, above, fcTail := 2+variant%2, variant/2%2 == 1, variant/4 == 1
			variant = (variant + 1) % 8
			t.Run(fmt.Sprintf("%s/%s/k%d/above=%v/fc=%v", act, pool, window, above, fcTail), func(t *testing.T) {
				// 12 and 6 divide by both windows; two or three channels of
				// 12×12 clear the 256-value floor, of 6×6 stay under it.
				channels, kernel, side := 2+r.IntN(2), 2+r.IntN(2), 6
				if above {
					side = 12
				}
				pooled := side / window
				layers := []nn.Layer{
					nn.NewConv2D(1, channels, kernel, 1, r),
					nn.NewActivation(act),
					nn.NewPool2D(pool, window),
				}
				if fcTail {
					layers = append(layers, &nn.Flatten{}, nn.NewFullyConnected(channels*pooled*pooled, 2+r.IntN(4), r))
				} else {
					c2 := 1 + r.IntN(2)
					layers = append(layers, nn.NewConv2D(channels, c2, 2, 1, r), nn.NewActivation(nn.ReLU),
						&nn.Flatten{}, nn.NewFullyConnected(c2*(pooled-1)*(pooled-1), 2+r.IntN(4), r))
				}
				model := nn.NewNetwork(layers...)
				img := randomImage(r, 1, side+kernel-1, side+kernel-1)
				ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fusedConfig(PoolAuto)
				cfg.Workers = r.IntN(2) * 3
				engine, err := newHybridEngine(s.svc, model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				plan := poolPlan(t, engine)
				if plan.CoeffIn < 2 || plan.CoeffTail != fcTail || (plan.CoeffTailReason == "") != fcTail {
					t.Fatalf("pool plan %+v: want a packed crossing, the tail taken only in front of the FC, a reason otherwise", plan)
				}
				got, fr, ecalls := s.inferConservative(t, engine, ci, img)
				// One crossing for the pair above the floor, two under it, one
				// more for the activation behind the second conv.
				wantECalls := uint64(2)
				if above {
					wantECalls = 1
				}
				if !fcTail {
					wantECalls++
				}
				if ecalls != wantECalls {
					t.Errorf("%d ECALLs, want %d", ecalls, wantECalls)
				}
				values := channels * side * side
				wantOut := channels * pooled * pooled
				if fcTail {
					wantOut = 1
				}
				// Above the floor the conv lands as the crossing's ciphertexts;
				// under it the activation ECALL returns one per value to fold.
				crossed, wantIn := (values+plan.CoeffIn-1)/plan.CoeffIn, values
				if above {
					wantIn = crossed
				}
				pl := firstPool(t, fr)
				if pl.CtsIn != wantIn || pl.CoeffIn != plan.CoeffIn || pl.CtsCrossed != crossed ||
					pl.CtsOut != wantOut || pl.CoeffTail != fcTail || pl.Fused != above {
					t.Errorf("pool layer %+v: want %d values crossing %d to a ciphertext as %d in, %d ciphertexts out", pl, values, plan.CoeffIn, wantIn, wantOut)
				}
				if conv := fr.Layers[0]; above && conv.CtsOut != crossed {
					t.Errorf("conv layer %+v: want the map landed as %d crossing ciphertexts", conv, crossed)
				}
				if fc := layerOfKind(t, fr, "fc"); fc.CoeffTail != fcTail {
					t.Errorf("fc layer coeff_tail %v, want %v", fc.CoeffTail, fcTail)
				}

				cfg.Pool = PoolSGXPool
				explicit, err := newHybridEngine(s.svc, model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p := poolPlan(t, explicit); p.CoeffIn != 0 || p.CoeffTail || p.Fused {
					t.Errorf("explicit SGXPool plan %+v: want the paper's per-value crossing", p)
				}
				want, efr, _ := s.inferExact(t, explicit, ci, img)
				if !slices.Equal(got, want) {
					t.Errorf("packed crossing %v != per-value crossing %v", got, want)
				}
				if pl := firstPool(t, efr); pl.CtsCrossed != values || pl.CoeffIn != 0 || pl.CtsOut != channels*pooled*pooled {
					t.Errorf("explicit pool layer %+v: want %d ciphertexts in, one per pooled value out", pl, values)
				}
			})
		}
	}
}

// TestCoeffCrossingBudgetStarved raises WeightScale until the accountant
// clears no second value per ciphertext: g = 1 is the per-value batch, reached
// by the same code, and still oracle-exact. The same weights exhaust the bound
// of the FC's plaintext product, so the pooled map leaves per value too.
func TestCoeffCrossingBudgetStarved(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(23, 29))
	model := fusedNet(r, nn.Sigmoid, nn.MeanPool, 2)
	img := randomImage(r, 1, 14, 14)
	ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fusedConfig(PoolAuto)
	var engine *HybridEngine
	for last := 1 << 30; ; cfg.WeightScale *= 2 {
		if engine, err = newHybridEngine(s.svc, model, cfg); err != nil {
			t.Fatalf("WeightScale %d: %v (no scale starves the budget before exactness fails)", cfg.WeightScale, err)
		}
		g := poolPlan(t, engine).CoeffIn
		if g > last {
			t.Errorf("WeightScale %d packs %d values per ciphertext, half of it packed %d", cfg.WeightScale, g, last)
		}
		if last = g; g == 1 {
			break
		}
	}
	if plan := poolPlan(t, engine); plan.CoeffTail || !strings.Contains(plan.CoeffTailReason, "noise bound exhausted") {
		t.Errorf("pool plan %+v: want the tail declined for noise", plan)
	}
	_, fr, ecalls := s.inferExact(t, engine, ci, img)
	pool := layerOfKind(t, fr, "pool")
	if ecalls != 1 || pool.CoeffIn != 1 || pool.CtsCrossed != 288 || pool.CtsOut != 72 || pool.CoeffTail {
		t.Errorf("%d ECALLs, pool layer %+v: want one crossing, 288 ciphertexts in and 72 out", ecalls, pool)
	}
}

// TestCoeffCrossingKeepsScalarOutputs: a pooled map of more than n values has
// no coefficient-packed form, so the crossing packs its input only; and an FC
// whose outputs would reach another packed crossing unrefreshed keeps the
// scalar kernel, because the tail leaves masked by-products beside each logit.
func TestCoeffCrossingKeepsScalarOutputs(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(31, 37))

	t.Run("fc input above n", func(t *testing.T) {
		// 15 channels of 12×12 through a 1×1 window: 2160 pooled values.
		model := nn.NewNetwork(nn.NewConv2D(1, 15, 3, 1, r), nn.NewActivation(nn.ReLU), nn.NewPool2D(nn.MeanPool, 1),
			&nn.Flatten{}, nn.NewFullyConnected(2160, 3, r))
		engine, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		plan := poolPlan(t, engine)
		if plan.CoeffIn < 2 || plan.CoeffTail || !strings.Contains(plan.CoeffTailReason, "exceeds 2048 plaintext coefficients") {
			t.Fatalf("pool plan %+v: want packed input and the tail declined for size", plan)
		}
		img := randomImage(r, 1, 14, 14)
		ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
		if err != nil {
			t.Fatal(err)
		}
		_, fr, ecalls := s.inferConservative(t, engine, ci, img)
		pool := layerOfKind(t, fr, "pool")
		if ecalls != 1 || pool.CtsCrossed != (2160+plan.CoeffIn-1)/plan.CoeffIn || pool.CtsOut != 2160 || pool.CoeffTail {
			t.Errorf("%d ECALLs, pool layer %+v: want ⌈2160/%d⌉ ciphertexts in, 2160 out", ecalls, pool, plan.CoeffIn)
		}
	})

	t.Run("fc feeds a packed crossing", func(t *testing.T) {
		// pool → flatten → FC(256) → act → 1×1 pool: the second pair fuses at
		// the floor, so the FC's outputs are what its crossing folds.
		model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, r), nn.NewActivation(nn.Sigmoid), nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{}, nn.NewFullyConnected(2*3*3, 256, r),
			nn.NewActivation(nn.ReLU), nn.NewPool2D(nn.MaxPool, 1),
			&nn.Flatten{}, nn.NewFullyConnected(256, 3, r))
		engine, err := newHybridEngine(s.svc, model, fusedConfig(PoolAuto))
		if err != nil {
			t.Fatal(err)
		}
		plan := engine.PlanInfo()
		if first := plan[2]; first.CoeffIn < 2 || first.CoeffTail || !strings.Contains(first.CoeffTailReason, "unrefreshed") {
			t.Errorf("first pool %+v: want its tail declined, the FC behind it feeds a packed crossing", first)
		}
		if second := plan[6]; second.CoeffIn < 2 || !second.CoeffTail {
			t.Errorf("second pool %+v: want a packed crossing with the tail", second)
		}
		img := tinyImage(5)
		ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
		if err != nil {
			t.Fatal(err)
		}
		_, fr, _ := s.inferConservative(t, engine, ci, img)
		if second := layerOfKind(t, fr, "pool"); !second.Fused || second.CtsCrossed != 1 || second.CtsOut != 1 {
			t.Errorf("second pool layer %+v: want 256 FC outputs folded into one ciphertext, one returned", second)
		}
	})
}

// TestEncryptVectorsBoundsItsInput: the re-encryption loop used to index the
// plaintext by the vector's length, with only pool_unpack's plan between a
// long vector and a panic in a process that recovers from none.
func TestEncryptVectorsBoundsItsInput(t *testing.T) {
	s := newFusedStack(t, 2048)
	st, ctx := s.svc.state, &sgx.Context{}
	keys, err := st.loadKeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.encryptVectors(ctx, keys, [][]int64{make([]int64, 2048)}, false); err != nil {
		t.Errorf("n values refused: %v", err)
	}
	if _, err := st.encryptVectors(ctx, keys, [][]int64{{1}, make([]int64, 2049)}, false); err == nil || !strings.Contains(err.Error(), "element 1: 2049 values exceed 2048") {
		t.Errorf("n+1 values: error %v, want a refusal naming the element", err)
	}
}
