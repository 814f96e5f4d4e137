package core

import (
	"bytes"
	"context"
	mrand "math/rand/v2"
	"strings"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// TestFlightReportPaperCNN is the end-to-end contract of the flight report:
// a paper-CNN inference produces a report whose ECALL-issuing enclave layers
// each carry their crossing — under the default plan that is the fused pool
// layer, whose ECALL applies the activation in front of it, while the act
// layer keeps its slot with a prediction and nothing crossed, and the map
// crosses coefficient-packed both ways —, the static accountant's
// prediction is a conservative lower bound on the budget the key holder
// measures on what crossed, and the metrics registry renders the per-layer
// series as lint-clean Prometheus text — all while the logits still equal
// the plaintext integer reference.
func TestFlightReportPaperCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size CNN test skipped in short mode")
	}
	params, err := DefaultHybridParameters()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(7, 11))
	model := nn.PaperCNN(r)
	cfg := DefaultConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := stats.NewRegistry()
	engine.SetMetrics(reg)
	svc.SetMetrics(reg)
	probe := &opRecorder{next: svc, client: client}
	engine.SetNonlinearCaller(probe)
	tracer := trace.NewTracer(4)
	rec := report.NewRecorder(4, reg)
	tracer.SetOnFinish(rec.Observe)

	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	ci, err := client.encryptImageScalar(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.Start("request")
	ctx := trace.With(context.Background(), tr)
	res, err := engine.InferContext(ctx, ci)
	tracer.Finish(tr)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}

	reports := rec.Last(1)
	if len(reports) != 1 {
		t.Fatalf("recorder holds %d reports, want 1", len(reports))
	}
	fr := reports[0]
	if len(fr.Layers) != len(engine.PlanInfo()) {
		t.Fatalf("flight report has %d layers, plan has %d", len(fr.Layers), len(engine.PlanInfo()))
	}
	enclaveLayers := 0
	for _, l := range fr.Layers {
		if l.WallMS < 0 {
			t.Errorf("layer %s: negative wall time %.3f", l.Label, l.WallMS)
		}
		if l.PredictedBudgetBits == nil {
			t.Errorf("layer %s: no static budget prediction", l.Label)
			continue
		}
		if l.Kind != "act" && l.Kind != "pool" {
			continue
		}
		if !l.Fused {
			t.Errorf("layer %s: the default plan fuses the act+pool pair", l.Label)
		}
		if l.Kind == "act" {
			// The fused act layer issues no ECALL: its work and its
			// crossing belong to the pool layer behind it.
			if l.Transitions != 0 || l.CtsCrossed != 0 || l.CtsOut != l.CtsIn {
				t.Errorf("fused layer %s: transitions %d, %d cts crossed, cts %d -> %d; want an untouched pass-through",
					l.Label, l.Transitions, l.CtsCrossed, l.CtsIn, l.CtsOut)
			}
			continue
		}
		// Every ECALL-issuing enclave layer refreshes what crossed; the key
		// holder measured it on the way in.
		measured, ok := probe.budgets[l.Label]
		if !ok {
			t.Errorf("enclave layer %s: no budget measured on its crossing", l.Label)
			continue
		}
		enclaveLayers++
		if *l.PredictedBudgetBits > measured {
			t.Errorf("layer %s: static prediction %.2f bits exceeds measured minimum %.2f bits — the worst-case accountant is unsound",
				l.Label, *l.PredictedBudgetBits, measured)
		}
		if l.Transitions <= 0 {
			t.Errorf("enclave layer %s: no transitions attributed", l.Label)
		}
		// The 6×24×24 conv map lands folded g values to a ciphertext and
		// crosses as it is, and the 864 pooled values come back as the FC's
		// one input.
		g := engine.PlanInfo()[l.Step].CoeffIn
		if g < 2 || l.CoeffIn != g || l.CtsIn != (3456+g-1)/g || l.CtsCrossed != (3456+g-1)/g || l.CtsOut != 1 || !l.CoeffTail {
			t.Errorf("layer %s: plan packs %d values per ciphertext; crossing reports %d, %d ciphertexts in, %d crossed, %d out (coeff_tail %v)",
				l.Label, g, l.CoeffIn, l.CtsIn, l.CtsCrossed, l.CtsOut, l.CoeffTail)
		}
	}
	if enclaveLayers != 1 || len(probe.budgets) != 1 {
		t.Fatalf("%d enclave layers crossed (%d measured), want the one fused stage", enclaveLayers, len(probe.budgets))
	}
	for _, p := range engine.PlanInfo() {
		if want := p.Kind == "act" || p.Kind == "pool"; p.Fused != want {
			t.Errorf("plan step %s: fused = %v, want %v", p.Label, p.Fused, want)
		}
	}
	if fr.MinPredictedBudgetBits == nil || *fr.MinPredictedBudgetBits < 0 {
		t.Fatal("report-level predicted budget minimum missing or negative")
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	if err := stats.LintPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics exposition does not lint: %v\n%s", err, text)
	}
	for _, series := range []string{"layer_02_pool_wall_ms", "layer_02_pool_pred_budget_bits", "ecall_transitions"} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s series", series)
		}
	}
}

// TestUndersizedParametersExact shrinks the coefficient modulus until the
// budget entering the first refresh is down to about 12 bits: inference must
// stay exact, and the static accountant must still bound from below the
// budget the key holder measures on every ciphertext that crosses into the
// enclave — the plan, not a measurement the host could watch, is what keeps
// undersized parameters from returning garbage.
func TestUndersizedParametersExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size CNN test skipped in short mode")
	}
	// 48-bit q against t=2^25 leaves a 22-bit budget ceiling: the conv
	// layer's consumption lands the first refresh around 12 bits, yet
	// comfortably above exhaustion.
	q, err := ring.GenerateNTTPrimeCongruent(48, 2048, 1<<25)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(2048, q, 1<<25, 16)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(7, 11))
	model := nn.PaperCNN(r)
	cfg := DefaultConfig()
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
	res, fr, measured := inferMeasured(t, engine, ci, client)
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
			t.Fatalf("logit %d: encrypted %d != reference %d — parameters too small for an exact inference", i, got[i], want[i])
		}
	}
	if crossed := assertConservative(t, fr, measured); crossed == 0 {
		t.Fatal("no layer crossed into the enclave")
	}
	for label, bits := range measured {
		t.Logf("layer %s: key holder measured %.2f bits entering its ECALL", label, bits)
	}
}
