// CAV edge scenario (§VII) over a real TCP connection, in one process: a
// connected-vehicle edge server hosts the enclave and the hybrid engine; a
// smart-device client attests it, receives HE keys, and sends encrypted
// digit queries over the wire protocol.
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"math"
	mrand "math/rand/v2"
	"net"
	"os"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/dataset"
	"hesgx/internal/nn"
	"hesgx/internal/report"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
	"hesgx/internal/wire"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

	// --- Edge server (the vehicle) ---
	rng := mrand.New(mrand.NewPCG(21, 22))
	net0 := nn.PaperCNN(rng)
	data := dataset.Generate(600, 5)
	train, test := data.Split(0.9)
	trainer := &nn.SGD{LR: 0.15, BatchSize: 16}
	examples := train.Examples()
	for epoch := 0; epoch < 5; epoch++ {
		nn.Shuffle(examples, rng)
		if _, err := trainer.TrainEpoch(net0, examples); err != nil {
			log.Fatal(err)
		}
	}

	platform, err := sgx.NewPlatform(sgx.Calibrated())
	if err != nil {
		log.Fatal(err)
	}
	params, err := core.DefaultHybridParameters()
	if err != nil {
		log.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewEngine(svc, net0)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil {
		log.Fatal(err)
	}
	// Flight recorder: every finished request trace folds into a per-layer
	// report with wall time, ECALL costs, and the predicted noise budget.
	reg := stats.NewRegistry()
	engine.SetMetrics(reg)
	svc.SetMetrics(reg)
	tracer := trace.NewTracer(8)
	reports := report.NewRecorder(8, reg)
	tracer.SetOnFinish(reports.Observe)
	service := serve.NewService(engine, svc,
		serve.WithMetrics(reg), serve.WithTracer(tracer), serve.WithoutLanes())
	defer service.Close()
	srv, err := wire.NewServer(svc, engine, logger,
		wire.WithService(service), wire.WithTracer(tracer), wire.WithMetrics(reg))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(ctx, ln); err != nil {
			log.Printf("server: %v", err)
		}
	}()
	fmt.Println("edge server (CAV) listening on", ln.Addr())

	// --- Smart-device client ---
	verifier := attest.NewService()
	client, err := wire.Dial(ln.Addr().String(), verifier)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.FetchTrustBundle(); err != nil { // demo TOFU bootstrap
		log.Fatal(err)
	}
	start := time.Now()
	if err := client.Attest(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attested in %s; received %s\n", time.Since(start).Round(time.Millisecond), client.Params())

	correct := 0
	const queries = 3
	for i := 0; i < queries; i++ {
		img := test.Images[i]
		truth := test.Labels[i]
		qs := time.Now()
		pred, err := client.Predict(img, 255)
		if err != nil {
			log.Fatal(err)
		}
		if pred == truth {
			correct++
		}
		fmt.Printf("encrypted query %d: true %d -> predicted %d (%s round trip)\n",
			i+1, truth, pred, time.Since(qs).Round(time.Millisecond))
	}
	fmt.Printf("%d/%d correct over the encrypted channel\n", correct, queries)

	if last := reports.Last(1); len(last) > 0 {
		fr := last[0]
		fmt.Printf("\nflight report, last query (trace %d, %.1f ms server-side):\n", fr.TraceID, fr.WallMS)
		fmt.Printf("  %-10s %10s %8s %12s\n", "layer", "wall ms", "ecalls", "pred bits")
		for _, l := range fr.Layers {
			pred := "-"
			if l.PredictedBudgetBits != nil {
				pred = fmt.Sprintf(">= %.1f", *l.PredictedBudgetBits)
			}
			note := ""
			if l.Fused {
				note = "  fused: one ECALL for the act+pool pair"
			}
			if l.CoeffIn > 1 {
				note += fmt.Sprintf("  (%d values per ciphertext across it)", l.CoeffIn)
			}
			fmt.Printf("  %-10s %10.2f %8d %12s%s\n", l.Label, l.WallMS, l.Transitions, pred, note)
		}
	}

	// Only the key holder can measure a noise budget; the edge server sees
	// ciphertexts and the accountant's predictions alone. Play the device
	// once more in-process — the same attested key delivery, one query
	// straight into the engine — and measure the logits it decrypts.
	device, err := core.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := device.RunKeyExchange(svc, verifier); err != nil {
		log.Fatal(err)
	}
	seeded, err := device.EncryptImageSeeded(test.Images[0], 255)
	if err != nil {
		log.Fatal(err)
	}
	ci, err := seeded.Expand()
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Infer(ci)
	if err != nil {
		log.Fatal(err)
	}
	lowest := math.Inf(1)
	for _, ct := range res.Logits {
		bits, err := device.NoiseBudget(ct)
		if err != nil {
			log.Fatal(err)
		}
		lowest = min(lowest, bits)
	}
	fmt.Printf("logit noise budget measured by the key holder: %.1f bits\n", lowest)

	cancel()
	<-serveDone
	fmt.Println("edge server shut down")
}
