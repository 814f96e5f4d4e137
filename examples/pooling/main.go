// Pooling strategies (§VI-D): SGXDiv computes the window sums
// homomorphically and asks the enclave only for the division, while SGXPool
// ships the whole feature map inside. This example measures both across
// window sizes and shows which of the three placements the planner picks on
// its own: behind a linear layer the paper's crossover rule (SGXPool below
// window 3, SGXDiv from 3 up), and behind an enclave activation neither —
// the pool ECALL applies the activation itself, one crossing for the pair.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

func main() {
	params, err := he.DefaultParameters(1024, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.Calibrated())
	if err != nil {
		log.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params)
	if err != nil {
		log.Fatal(err)
	}
	eval, err := he.NewEvaluator(params)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewCryptoSource())
	if err != nil {
		log.Fatal(err)
	}

	const size = 24
	cts := make([]*he.Ciphertext, size*size)
	for i := range cts {
		if cts[i], err = enc.EncryptScalar(uint64(i % 7)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%-8s %-12s %-12s %-22s %-s\n", "window", "SGXDiv", "SGXPool", "auto, behind a linear", "auto, behind an activation")
	for _, k := range []int{2, 3, 4, 6, 8, 12} {
		out := size / k

		divStart := time.Now()
		sums := make([]*he.Ciphertext, out*out)
		for oy := 0; oy < out; oy++ {
			for ox := 0; ox < out; ox++ {
				var acc *he.Ciphertext
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						ct := cts[(oy*k+ky)*size+ox*k+kx]
						if acc == nil {
							acc = ct
						} else if acc, err = eval.Add(acc, ct); err != nil {
							log.Fatal(err)
						}
					}
				}
				sums[oy*out+ox] = acc
			}
		}
		if _, err := svc.Nonlinear(context.Background(),
			core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: uint64(k * k)}, sums); err != nil {
			log.Fatal(err)
		}
		divTime := time.Since(divStart)

		poolStart := time.Now()
		if _, err := svc.Nonlinear(context.Background(), core.NonlinearOp{
			Kind:     core.OpPoolFull,
			Geometry: core.Geometry{Channels: 1, Height: size, Width: size, Window: k},
		}, cts); err != nil {
			log.Fatal(err)
		}
		poolTime := time.Since(poolStart)

		choice := "SGXDiv"
		if core.ChoosePoolStrategy(k) == core.PoolSGXPool {
			choice = "SGXPool"
		}
		fmt.Printf("%-8d %-12s %-12s %-22s %-s\n", k,
			divTime.Round(time.Millisecond), poolTime.Round(time.Millisecond), choice, behindActivation(svc, k, choice))
	}
	fmt.Printf("\ncrossover rule: SGXPool when window < %d, SGXDiv otherwise (§VI-D);\n", core.PoolCrossoverWindow)
	fmt.Printf("behind an activation the map is already plaintext inside the enclave, so the pair shares one ECALL\n")
	fmt.Printf("(on maps of at least 256 ciphertexts, like this %d-ciphertext one; smaller maps keep two calls)\n", size*size)
}

// behindActivation asks the planner where a k×k mean pool goes when it
// directly follows an enclave activation under the default PoolAuto.
func behindActivation(svc *core.EnclaveService, k int, unfused string) string {
	engine, err := core.NewEngine(svc, nn.NewNetwork(nn.NewActivation(nn.Sigmoid), nn.NewPool2D(nn.MeanPool, k)))
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range engine.PlanInfo() {
		if step.Kind == "pool" && step.Fused {
			return "fused: one ECALL activates, then pools"
		}
	}
	return unfused
}
