package core

import (
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"hesgx/internal/linear"
	"hesgx/internal/nn"
)

// TestConvFoldPaperCNN pins the conv that lands coefficient-packed to the
// route it replaced on the paper CNN, at the accountant's g for the
// benchmark's fixed-point pipeline: every crossing ciphertext of the class
// kernel equals packCoefficients(linear.Conv(...), g), coefficient for
// coefficient, at n=2048 over the whole 28×28 map and, outside -short, at
// n=8192 over a 15×15 crop (two crossings, the second one partial) that keeps
// the reference's scalar outputs small. The log carries the class count and a
// warm-pass time of both routes.
func TestConvFoldPaperCNN(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-size kernel equivalence skipped under -race")
	}
	tiers := []int{2048}
	if !testing.Short() {
		tiers = append(tiers, 8192)
	}
	for _, n := range tiers {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			s := newFusedStack(t, n)
			// The benchmark's model: its weight seed and scales (pixel 255,
			// weight 8, activation 256), with non-zero conv biases so each
			// crossing's folded bias is checked too.
			cfg := Config{PixelScale: 255, WeightScale: 8, ActScale: 256, Pool: PoolAuto}
			model := nn.PaperCNN(mrand.New(mrand.NewPCG(42, 43)))
			for i := range model.Layers[0].(*nn.Conv2D).Bias.W.Data {
				model.Layers[0].(*nn.Conv2D).Bias.W.Data[i] = float64(i) - 2.5
			}
			e, err := newHybridEngine(s.svc, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.EncodeWeights(); err != nil {
				t.Fatal(err)
			}
			plan, conv := e.PlanInfo(), e.steps[0]
			g := conv.foldG
			if g < 2 || plan[0].CoeffOut != g || plan[2].CoeffIn != g || !conv.foldFloor {
				t.Fatalf("conv plan %+v, pool plan %+v: want the conv landing at the fused crossing's g", plan[0], plan[2])
			}
			side, distinct := 28, 28*28
			if n > 2048 {
				side, distinct = 15, 97
			}
			in := uniformCiphertexts(e.params, side*side, distinct, uint64(n))

			start := time.Now()
			outs, _, _, err := linear.Conv(e.eval, conv.conv, conv.bias, in, 1, side, side, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.packCoefficients(outs, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			twoStep := time.Since(start)
			outs = nil

			built := time.Now()
			tab, err := e.convFoldFor(conv, 1, side, side)
			if err != nil {
				t.Fatal(err)
			}
			built0 := time.Since(built)
			if _, err := tab.Run(e.eval, in, 0); err != nil {
				t.Fatal(err)
			}
			start = time.Now()
			got, err := tab.Run(e.eval, in, 0)
			if err != nil {
				t.Fatal(err)
			}
			warm := time.Since(start)
			if len(got) != len(want) {
				t.Fatalf("%d crossing ciphertexts, want %d", len(got), len(want))
			}
			for o := range want {
				assertSameCiphertext(t, fmt.Sprintf("crossing %d", o), got[o], want[o])
			}
			values := conv.conv.OutC * conv.conv.OutSize(side) * conv.conv.OutSize(side)
			t.Logf("n=%d %dx%d: %d values, g=%d → %d crossing ciphertexts; %d classes over %d distinct kernels; table %v; warm pass %v (linear.Conv + packCoefficients %v)",
				n, side, side, values, g, len(got), tab.Classes(), tab.Kernels(), built0.Round(time.Millisecond),
				warm.Round(time.Millisecond), twoStep.Round(time.Millisecond))
		})
	}
}

// TestConvFoldTableBuiltOnce: concurrent first requests on a fresh engine
// share one class table — the cache builds it under its lock exactly once —
// and every one of them is oracle-exact; other input geometries never grow
// the cache past maxFoldTables.
func TestConvFoldTableBuiltOnce(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(47, 53))
	engine, err := newHybridEngine(s.svc, fusedNet(r, nn.ReLU, nn.MeanPool, 2), fusedConfig(PoolAuto))
	if err != nil {
		t.Fatal(err)
	}
	const requests = 4
	imgs := make([]*nn.Tensor, requests)
	cis := make([]*CipherImage, requests)
	for i := range imgs {
		imgs[i] = randomImage(r, 1, 14, 14)
		if cis[i], err = s.client.EncryptImages(imgs[i:i+1], 63); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*InferenceResult, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := range cis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = engine.Infer(cis[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got, err := s.client.DecryptValues(results[i].Logits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ReferenceForward(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("request %d: logits %v != reference %v", i, got, want)
		}
	}
	if engine.folds.built != 1 || len(engine.folds.tables) != 1 {
		t.Errorf("%d tables built, %d cached; want the one geometry built once", engine.folds.built, len(engine.folds.tables))
	}
	// Geometries the model was not built for — a client's choice — are
	// folded, but the cache stops growing at maxFoldTables.
	for side := 8; side < 8+maxFoldTables+2; side++ {
		if _, err := engine.convFoldFor(engine.steps[0], 1, side, side); err != nil {
			t.Fatal(err)
		}
	}
	if len(engine.folds.tables) != maxFoldTables || engine.folds.built != maxFoldTables+3 {
		t.Errorf("%d tables built, %d cached; want every geometry built and %d cached", engine.folds.built, len(engine.folds.tables), maxFoldTables)
	}
}

// TestConvFoldRoutes pins which requests take the kernel, through the plan
// and the flight report: a scalar conv whose map reaches a coefficient-packed
// crossing lands as ⌈values/g⌉ ciphertexts (its transforms on the conv layer,
// the pool layer taking them as they are, one ECALL for a fused pair — the
// floor counts map values, not ciphertexts); every other route keeps one
// ciphertext per conv output, or per channel on the rotation-packed prefix.
func TestConvFoldRoutes(t *testing.T) {
	s := newFusedStack(t, 2048)
	r := mrand.New(mrand.NewPCG(59, 61))
	img := randomImage(r, 1, 14, 14)
	ci, err := s.client.EncryptImages([]*nn.Tensor{img}, 63)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(t *testing.T, model *nn.Network, cfg Config) (*HybridEngine, int) {
		t.Helper()
		engine, err := newHybridEngine(s.svc, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return engine, engine.PlanInfo()[0].CoeffOut
	}
	t.Run("fused pair at the floor", func(t *testing.T) {
		engine, g := plan(t, fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), fusedConfig(PoolAuto))
		if g < 2 || g != poolPlan(t, engine).CoeffIn {
			t.Fatalf("conv plan coeff_out %d, pool plan %+v: want the conv landing at the crossing's g", g, poolPlan(t, engine))
		}
		_, fr, ecalls := s.inferExact(t, engine, ci, img)
		crossed := (288 + g - 1) / g
		conv, pool := layerOfKind(t, fr, "conv"), layerOfKind(t, fr, "pool")
		if conv.CtsOut != crossed || conv.NTTForward == 0 || conv.NTTInverse != 2*crossed {
			t.Errorf("conv layer %+v: want 288 values landed as %d ciphertexts, %d inverse transforms", conv, crossed, 2*crossed)
		}
		if ecalls != 1 || !pool.Fused || pool.CtsIn != crossed || pool.CtsCrossed != crossed {
			t.Errorf("%d ECALLs, pool layer %+v: want the fused pair's one ECALL carrying the %d landed ciphertexts", ecalls, pool, crossed)
		}
	})
	t.Run("map under the floor", func(t *testing.T) {
		small := tinyImage(3)
		sci, err := s.client.EncryptImages([]*nn.Tensor{small}, 63)
		if err != nil {
			t.Fatal(err)
		}
		engine, g := plan(t, tinyCNN(9), fusedConfig(PoolAuto))
		if g < 2 {
			t.Fatalf("conv plan coeff_out %d: want the fold planned behind the fused activation", g)
		}
		rec := &opRecorder{next: s.svc}
		engine.SetNonlinearCaller(rec)
		_, fr, ecalls := s.inferExact(t, engine, sci, small)
		conv, pool := layerOfKind(t, fr, "conv"), layerOfKind(t, fr, "pool")
		if conv.CtsOut != 72 || conv.NTTForward != 0 || pool.CtsIn != 72 || pool.CtsCrossed != (72+g-1)/g {
			t.Errorf("conv layer %+v, pool layer %+v: want 72 scalar outputs, refreshed per value, folded at the pool", conv, pool)
		}
		if ecalls != 2 || len(rec.kinds) != 2 || rec.kinds[0] != OpSigmoid || rec.kinds[1] != OpPoolFull {
			t.Errorf("%d ECALLs, ops %v: want [sigmoid pool_full]", ecalls, rec.kinds)
		}
	})
	t.Run("conv feeds pool", func(t *testing.T) {
		// No activation between: PoolAuto sends the 2×2 window to SGXPool.
		model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, r), nn.NewPool2D(nn.MeanPool, 2),
			nn.NewActivation(nn.Sigmoid), &nn.Flatten{}, nn.NewFullyConnected(2*6*6, 3, r))
		engine, g := plan(t, model, fusedConfig(PoolAuto))
		if g < 2 || g != poolPlan(t, engine).CoeffIn || engine.steps[0].foldFloor {
			t.Fatalf("conv plan coeff_out %d, pool plan %+v: want the conv landing at the SGXPool crossing's g", g, poolPlan(t, engine))
		}
		_, fr, ecalls := s.inferExact(t, engine, ci, img)
		crossed := (288 + g - 1) / g
		conv, pool := layerOfKind(t, fr, "conv"), firstPool(t, fr)
		if ecalls != 2 || conv.CtsOut != crossed || conv.NTTForward == 0 || pool.Fused || pool.CtsIn != crossed || pool.CtsCrossed != crossed {
			t.Errorf("%d ECALLs, conv layer %+v, pool layer %+v: want %d landed ciphertexts crossing as they are", ecalls, conv, pool, crossed)
		}
	})
	t.Run("lanes", func(t *testing.T) {
		engine, g := plan(t, fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), fusedConfig(PoolAuto))
		if g < 2 {
			t.Fatalf("conv plan coeff_out %d", g)
		}
		lci, err := s.client.EncryptImages([]*nn.Tensor{img, randomImage(r, 1, 14, 14)}, 63)
		if err != nil {
			t.Fatal(err)
		}
		_, fr := inferReported(t, engine, lci)
		conv, pool := layerOfKind(t, fr, "conv"), layerOfKind(t, fr, "pool")
		if conv.CtsOut != 288 || conv.NTTForward != 0 || pool.CtsIn != 288 || pool.CoeffIn != 1 {
			t.Errorf("conv layer %+v, pool layer %+v: want the lanes' 288 scalar conv outputs crossing per position", conv, pool)
		}
	})
	t.Run("packed prefix", func(t *testing.T) {
		cfg := fusedConfig(PoolAuto)
		cfg.PackedConv = true
		engine, _ := plan(t, fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), cfg)
		if !engine.PackedInfo().Active {
			t.Fatalf("packed plan inactive: %s", engine.PackedInfo().Reason)
		}
		pci, err := s.client.EncryptImagePacked(img, 63)
		if err != nil {
			t.Fatal(err)
		}
		_, fr, _ := s.inferExact(t, engine, pci, img)
		if conv := layerOfKind(t, fr, "conv"); conv.CtsOut != 2 || conv.KeySwitchOps != 8 {
			t.Errorf("conv layer %+v: want the rotation-packed conv's 2 channel ciphertexts", conv)
		}
		// The same engine folds a scalar-layout request.
		_, fr, _ = s.inferExact(t, engine, ci, img)
		if conv := layerOfKind(t, fr, "conv"); conv.CtsOut >= 288 || conv.KeySwitchOps != 0 {
			t.Errorf("conv layer %+v: want the scalar request folded", conv)
		}
	})
	// The paper's per-value pipelines plan no fold; their runs are
	// TestFusedPoolMatchesTwoCallStrategies'.
	single := fusedConfig(PoolAuto)
	single.SingleECalls = true
	for name, cfg := range map[string]Config{
		"explicit SGXPool": fusedConfig(PoolSGXPool),
		"explicit SGXDiv":  fusedConfig(PoolSGXDiv),
		"single ecalls":    single,
	} {
		if _, g := plan(t, fusedNet(r, nn.Sigmoid, nn.MeanPool, 2), cfg); g != 0 {
			t.Errorf("%s: conv plan coeff_out %d, want no fold", name, g)
		}
	}
}
