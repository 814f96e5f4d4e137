package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDef mirrors one BENCHMARK.json metric entry; bench_test.go keeps
// the two lists identical. bound is zero for per-layer metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a vehicle and the edge operator see. failed_share is
// not listed: the result line carries it as failed/attempted, and a metric
// that must stay 0 cannot carry a relative bound. The timed metrics and
// the pool-dependent allocation volume carry the widest bound allowed:
// runs of one commit on the reference VM spread 4–8% between quartiles
// (README, "Steadiness"), and a bound needs three times that.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"images_per_s", "1/s", "higher", 0.25},
	{"upload_bytes_per_image", "B", "lower", 0.01},
	{"download_bytes_per_image", "B", "lower", 0.01},
	{"alloc_mb_per_image", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's ledger. Durations are what one image's
// request waits for (a shared lane pass counts in full for each of its
// images); counts and bytes are totals divided by images.
var perLayer = []metricDef{
	{"core.client.encrypt_ms", "ms", "lower", 0},
	{"core.client.cts_per_image", "count", "lower", 0},
	{"core.client.decrypt_ms", "ms", "lower", 0},
	{"wire.encode_request_ms", "ms", "lower", 0},
	{"wire.decode_request_ms", "ms", "lower", 0},
	{"wire.encode_reply_ms", "ms", "lower", 0},
	{"wire.decode_reply_ms", "ms", "lower", 0},
	{"wire.transport_ms", "ms", "lower", 0},
	{"wire.closure_ratio", "ratio", "higher", 0},
	{"serve.infer_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.lane_occupancy", "count", "higher", 0},
	{"serve.lane_fallback_share", "ratio", "lower", 0},
	{"core.engine.infer_ms", "ms", "lower", 0},
	{"core.engine.linear_ms", "ms", "lower", 0},
	{"core.enclave.activation_ms", "ms", "lower", 0},
	{"core.enclave.pool_ms", "ms", "lower", 0},
	{"core.enclave.lane_pack_ms", "ms", "lower", 0},
	{"core.enclave.lane_demux_ms", "ms", "lower", 0},
	{"core.enclave.codec_ms", "ms", "lower", 0},
	{"sgx.ecalls", "count", "lower", 0},
	{"sgx.page_faults", "count", "lower", 0},
	{"sgx.enclave_compute_ms", "ms", "lower", 0},
	{"sgx.injected_ms", "ms", "lower", 0},
	{"sgx.net_of_injected_p50_ms", "ms", "lower", 0},
	{"ring.ntt_fwd", "count", "lower", 0},
	{"ring.ntt_inv", "count", "lower", 0},
	{"ring.limb_muls", "count", "lower", 0},
	{"ring.rotations", "count", "lower", 0},
	{"he.keyswitch_ops", "count", "lower", 0},
	{"he.hoisted_rotations", "count", "lower", 0},
	{"he.logit_noise_budget_bits", "bits", "higher", 0},
	{"setup.params_ms", "ms", "lower", 0},
	{"setup.enclave_keygen_ms", "ms", "lower", 0},
	{"setup.encode_weights_ms", "ms", "lower", 0},
	{"setup.attest_ms", "ms", "lower", 0},
	{"setup.galois_keys_ms", "ms", "lower", 0},
	{"setup.galois_upload_bytes", "B", "lower", 0},
	{"setup.warmup_ms", "ms", "lower", 0},
	{"client.latency_p50_ms", "ms", "lower", 0},
	{"client.latency_p75_ms", "ms", "lower", 0},
	{"client.latency_max_ms", "ms", "lower", 0},
	{"client.latency_samples", "count", "higher", 0},
	{"process.peak_rss_mb", "MiB", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
	{"bench.span_overhead_ms", "ms", "lower", 0},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// invalidate marks the run failed for a reason other than a wrong reply
// (a stage ledger that does not close, a byte count off the codec size).
func (r *result) invalidate(format string, args ...any) {
	logf("run invalid: "+format, args...)
	r.Correct = false
}

// print writes every metric by name and unit, then the result line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "failed_share %d/%d\n", r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
