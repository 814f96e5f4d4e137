package main

import (
	mrand "math/rand/v2"

	"hesgx/internal/nn"
	"hesgx/internal/sgx"
)

// modelSpec is the served model and its fixed-point pipeline: server
// configuration, never derived from the workload seed.
type modelSpec struct {
	build                   func(*mrand.Rand) *nn.Network
	channels, height, width int
	// kernel is the conv window; the client derives its rotation-key set
	// from it (tap (ky,kx) is a left rotation by ky·width+kx slots).
	kernel             int
	pixel, weight, act uint64
	// tBits sizes the batching-capable plaintext modulus.
	tBits int
}

// paperModel is the Fig. 7 CNN on one 1×28×28 image. WeightScale 8 keeps
// the key-switched packed-conv noise bound positive at n=2048, and every
// workload shares it so layouts differ in nothing but layout.
var paperModel = modelSpec{
	build:    nn.PaperCNN,
	channels: 1, height: 28, width: 28,
	kernel: 5,
	pixel:  255, weight: 8, act: 256,
	tBits: 25,
}

// Fixed server configuration. The --seed argument reaches image pixels
// only; these never change between runs.
const (
	weightSeedHi  = 42 // PCG words of the model weight initialisation
	weightSeedLo  = 43
	enclaveKeySrc = 41 // seeded source of the enclave's FV key generation
	jitterSeed    = 1  // SGX cost-model jitter stream
)

// workload is one row of the ledger: a parameter tier, a ciphertext layout
// and a closed-loop client population.
type workload struct {
	name, why string
	// n is the ring degree (2048, or the RNS-only 8192 tier).
	n int
	// packed selects the rotation-keyed one-ciphertext-per-channel layout
	// (Client.InferPacked); otherwise the paper's pixel-per-ciphertext
	// layout with seeded uploads (Client.Infer).
	packed bool
	// lanes turns the serve lane scheduler on (MaxLanes = MinLanes =
	// clients, so every round is one shared SIMD pass).
	lanes bool
	// clients is the closed-loop population: each holds one request in
	// flight on its own connection. Never above 2 (nproc is 2 here).
	clients int
	// nominalMS is the request latency on the reference machine (README,
	// "Recorded environment"); --seconds ÷ nominalMS is the measured
	// request count per client, floored at minRequests.
	nominalMS   float64
	minRequests int
	// tracedRequests is how many wire requests each client issues in the
	// traced run, whose p50 the staged stages must reconcile with.
	tracedRequests int
	// tracerOverhead adds the traced run's wire.WithClientTracer(nil)
	// comparison (trace.overhead_ms); only the sub-second workload can
	// resolve it.
	tracerOverhead bool
}

var workloads = []workload{
	{
		name: "scalar_1c",
		why:  "paper layout: 784 seeded uploads, 3456-ciphertext activation ECALL paging the EPC; client crypto, wire codec and enclave batch codec dominate, rotations do nothing",
		n:    2048, clients: 1, nominalMS: 7500, minRequests: 2, tracedRequests: 1,
	},
	{
		name: "packed_1c",
		why:  "rotation-packed layout: 11 ciphertexts; key-switch, hoisted rotations and pool_unpack dominate, so wire or encrypt changes must show no change here",
		n:    2048, packed: true, clients: 1, nominalMS: 950, minRequests: 8, tracedRequests: 5, tracerOverhead: true,
	},
	{
		name: "lane_2c",
		why:  "two scalar clients share one SIMD pass through lane_pack and lane_demux: same layers used differently, throughput beside latency",
		n:    2048, lanes: true, clients: 2, nominalMS: 10500, minRequests: 1, tracedRequests: 1,
	},
	{
		name: "packed_8192_1c",
		why:  "4x ring degree, RNS-only tier: working set exceeds the EPC and NTTs leave cache, separating memory-bound and paging effects from the n=2048 run",
		n:    8192, packed: true, clients: 1, nominalMS: 3900, minRequests: 3, tracedRequests: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// runConfig is one benchmark invocation. Tests swap model and cost for a
// toy network under the zero-cost platform; the command line always runs
// paperModel under sgx.Calibrated.
type runConfig struct {
	wl      workload
	model   modelSpec
	cost    sgx.CostModel
	seed    uint64
	seconds float64
}
