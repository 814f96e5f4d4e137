// Package serve is the concurrent serving pipeline of the edge server:
//
//	wire.Server ──► Service.Infer(ctx, Request)
//	                   │
//	                   ▼
//	            lanePacker (slot-lane admission: fill-or-deadline buckets,
//	                   │    enclave lane_pack/lane_demux repack, scalar
//	                   │    fallback under low load)
//	                   ▼
//	            Scheduler (bounded queue, worker pool, deadlines)
//	                   │ engine.InferContext per job
//	                   ▼
//	            core.HybridEngine ──► core.EnclaveService ──► sgx.Enclave
//
// The paper's central performance result (§VIII, Fig. 8) is that batching
// ciphertexts per enclave transition amortizes the ~1 ms ECALL cost. The
// engine does that within one inference: every enclave layer sends all of
// its ciphertexts in one ECALL, and the paper CNN crosses the boundary once
// per request. This package bounds concurrency and sheds load at admission
// (the Scheduler) and, on batching-capable parameters, packs concurrent
// scalar requests into the CRT slot lanes of one shared engine pass (the
// lane packer), so one pass and its ECALLs serve several requests.
package serve
