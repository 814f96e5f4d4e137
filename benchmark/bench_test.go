package main

import (
	"bytes"
	"encoding/json"
	mrand "math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hesgx/internal/nn"
	"hesgx/internal/sgx"
)

// toyModel is the 8×8 conv→sigmoid→pool→FC network the repo's integration
// tests use, with the paper pipeline's weight and activation scales.
var toyModel = modelSpec{
	build: func(r *mrand.Rand) *nn.Network {
		return nn.NewNetwork(
			nn.NewConv2D(1, 2, 3, 1, r),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(2*3*3, 4, r),
		)
	},
	channels: 1, height: 8, width: 8,
	kernel: 3,
	pixel:  63, weight: 8, act: 256,
	tBits: 25,
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

func requireMetrics(t *testing.T, res *result, want []string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		if m.Unit != unitOf(name) {
			t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unitOf(name))
		}
	}
}

// Every workload's code path — stack stand-up, attested clients, closed
// loop, oracle check, path assertions, byte accounting, staged pipeline,
// second-engine pass, trace file — on the toy model with one request and
// the zero-cost platform.
func TestWorkloadsOnToyModel(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			wl.minRequests, wl.tracedRequests = 1, 1
			rc := runConfig{wl: wl, model: toyModel, cost: sgx.ZeroCost(), seed: 7, seconds: 0.001}

			res, err := runUntraced(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != wl.clients {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d, want %d clean requests",
					res.Correct, res.Failed, res.Attempted, wl.clients)
			}
			requireMetrics(t, res, metricNames(endToEnd))
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
				}
			}

			dir := t.TempDir()
			res, err = runTraced(rc, dir)
			if err != nil {
				t.Fatal(err)
			}
			// The closure bounds are set for second-long paper inferences; a
			// millisecond toy request may miss them, so only replies count here.
			if res.Failed != 0 {
				t.Fatalf("traced: failed=%d/%d", res.Failed, res.Attempted)
			}
			requireMetrics(t, res, metricNames(perLayer))
			if got := res.Metrics["he.keyswitch_ops"].Value > 0; got != wl.packed {
				t.Errorf("he.keyswitch_ops = %v on a workload with packed=%v", res.Metrics["he.keyswitch_ops"].Value, wl.packed)
			}
			if got := res.Metrics["serve.lane_occupancy"].Value; wl.lanes && got != float64(wl.clients) {
				t.Errorf("serve.lane_occupancy = %v, want %d", got, wl.clients)
			}
			if res.Metrics["sgx.ecalls"].Value <= 0 || res.Metrics["core.engine.infer_ms"].Value <= 0 {
				t.Errorf("direct pass recorded no enclave calls or no engine time")
			}
			var doc struct {
				Workload string
				Spans    []span
			}
			b, err := os.ReadFile(filepath.Join(dir, wl.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range doc.Spans {
				seen[s.Name] = true
				if s.EndNS < s.StartNS || s.Parent >= s.ID {
					t.Errorf("span %+v is not a finished child of an earlier span", s)
				}
			}
			for _, name := range append([]string{"request", "engine_pass", "core.engine.infer", "core.enclave.sigmoid"}, stagedStages...) {
				if !seen[name] {
					t.Errorf("trace file has no %s span", name)
				}
			}
		})
	}
}

// BENCHMARK.json and the benchmark must declare the same workloads and
// metrics, and every name must fit the contract's alphabet.
func TestBenchmarkJSONMatches(t *testing.T) {
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, doc.Workloads[i], wl.name, wl.why)
		}
		if !nameRE.MatchString(wl.name) || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %s: name or why outside the contract", wl.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: metric %q (%s) is outside the contract or repeated", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: metric %s better=%q", kind, d.name, d.better)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", d.name, d.bound)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	for _, name := range exactCounts {
		unitOf(name) // panics on a name the benchmark does not declare
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {75, 32.5}, {100, 40}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestClosure(t *testing.T) {
	// Wire requests spend 60 ms outside the enclave, staged ones 50 ms: of
	// a 1000 ms p50, 10 ms is unattributed.
	ratio, transport := closure([]float64{61, 60, 59}, []float64{50, 49, 51}, 1000)
	if transport != 10 || ratio != 0.99 {
		t.Errorf("closure = %v, %v; want 0.99, 10", ratio, transport)
	}
	if !closes(ratio) || closes(0.84) || closes(1.11) || !closes(0.85) || !closes(1.10) {
		t.Error("closes disagrees with the 0.85–1.10 band")
	}
	if r, tr := closure(nil, nil, 0); r != 0 || tr != 0 {
		t.Errorf("closure with no p50 = %v, %v", r, tr)
	}
}

func TestSizeRequests(t *testing.T) {
	for _, c := range []struct {
		seconds   float64
		nominalMS float64
		floor     int
		want      int
	}{
		{18, 7500, 2, 2},
		{18, 950, 8, 19},
		{18, 10500, 1, 2},
		{1, 10000, 1, 1},
		{1, 950, 8, 8},
		{0.001, 1000, 0, 1},
	} {
		wl := workload{nominalMS: c.nominalMS, minRequests: c.floor}
		if got := sizeRequests(c.seconds, wl); got != c.want {
			t.Errorf("sizeRequests(%v, %+v) = %d, want %d", c.seconds, wl, got, c.want)
		}
	}
}

func TestOffPath(t *testing.T) {
	scalar, _ := findWorkload("scalar_1c")
	packed, _ := findWorkload("packed_1c")
	lane, _ := findWorkload("lane_2c")
	var zero pathCounters
	for _, c := range []struct {
		name     string
		wl       workload
		to       pathCounters
		requests int
		off      bool
	}{
		{"scalar clean", scalar, zero, 2, false},
		{"scalar rotated", scalar, pathCounters{keySwitchOps: 1}, 2, true},
		{"scalar lane-packed", scalar, pathCounters{lanePacked: 2}, 2, true},
		{"packed clean", packed, pathCounters{keySwitchOps: 42}, 1, false},
		{"packed without rotation", packed, zero, 1, true},
		{"lane clean", lane, pathCounters{lanePacked: 4}, 4, false},
		{"lane short", lane, pathCounters{lanePacked: 2}, 4, true},
		{"lane fallback", lane, pathCounters{lanePacked: 4, laneFallback: 1}, 4, true},
	} {
		if why := offPath(c.wl, zero, c.to, c.requests); (why != "") != c.off {
			t.Errorf("%s: offPath = %q, want off=%v", c.name, why, c.off)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency, ecalls float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			e2e := newResult(10, failed)
			e2e.set("latency_p50_ms", latency+float64(seed))
			e2e.set("images_per_s", 1000/latency)
			layer := newResult(3, 0)
			layer.set("sgx.ecalls", ecalls)
			for _, rec := range []record{
				{Workload: "packed_1c", Seed: seed, Trace: 0, result: *e2e},
				{Workload: "packed_1c", Seed: seed, Trace: 1, result: *layer},
			} {
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("base.jsonl", 900, 2, 0)
	var out bytes.Buffer
	if code := compare(&out, base, write("same.jsonl", 940, 2, 0)); code != 0 {
		t.Errorf("4%% slower within a 25%% bound: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "latency_p50_ms") || !strings.Contains(out.String(), "25%") {
		t.Errorf("compare output lacks the metric or its bound:\n%s", out.String())
	}
	out.Reset()
	if code := compare(&out, base, write("slow.jsonl", 1300, 2, 0)); code != 1 || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("44%% slower: exit %d\n%s", code, out.String())
	}
	if code := compare(&out, write("slow2.jsonl", 1300, 2, 0), base); code != 0 {
		t.Errorf("an improvement must pass: exit %d", code)
	}
	out.Reset()
	if code := compare(&out, base, write("count.jsonl", 900, 3, 0)); code != 1 || !strings.Contains(out.String(), "COUNT DIFFERS") {
		t.Errorf("differing ecall count: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, base, write("failed.jsonl", 900, 2, 1)); code != 1 || !strings.Contains(out.String(), "FAILED RUN") {
		t.Errorf("failed run: exit %d\n%s", code, out.String())
	}
	if code := compare(&out, base, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
