// Command hesgx-benchdiff compares two hesgx-bench2json reports and fails
// (exit 1) when any watched metric regresses past a tolerance ratio. It is
// the CI regression gate over the checked-in benchmark baselines: a smoke
// run on shared CI hardware is noisy, so the default tolerance is a
// deliberately loose 2× — the gate catches order-of-magnitude regressions
// (an accidental O(n²) path, a dropped pool, a de-batched ECALL loop), not
// single-digit drift.
//
// Usage:
//
//	hesgx-benchdiff -base BENCH_PR6.json -new /tmp/bench.json
//	                [-max-ratio 2.0] [-metrics ns/op,bytes/image]
//	                [-min-ratio 0.5] [-min-metrics lane_images/sec,speedup_x]
//	                [-floor 2.0] [-floor-metrics speedup_x]
//
// -metrics gates lower-is-better series (latency, bytes): fail when
// new/base exceeds -max-ratio. -min-metrics gates higher-is-better series
// (throughput, speedups): fail when new/base falls below -min-ratio.
// -floor-metrics gates against an absolute value rather than the baseline:
// fail when the new run's metric falls below -floor, regardless of what the
// baseline recorded — the gate for hard acceptance criteria ("the RNS
// multiply must stay ≥2× faster than the u128 path") that must not erode
// through a sequence of small tolerated regressions.
//
// Benchmarks present in the baseline but missing from the new report (or
// vice versa) warn without failing: renames and coverage changes are PR
// review matters, not regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Benchmark mirrors the hesgx-bench2json document.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report mirrors the hesgx-bench2json document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	basePath := flag.String("base", "", "baseline bench2json report (required)")
	newPath := flag.String("new", "", "candidate bench2json report (required)")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when new/base exceeds this ratio for a watched metric")
	metricList := flag.String("metrics", "ns/op,bytes/image", "comma-separated metrics to gate (lower is better)")
	minRatio := flag.Float64("min-ratio", 0.5, "fail when new/base falls below this ratio for a -min-metrics metric")
	minMetricList := flag.String("min-metrics", "", "comma-separated metrics to gate as higher-is-better (throughput, speedups)")
	floorValue := flag.Float64("floor", 0, "fail when a -floor-metrics metric in the new report falls below this absolute value")
	floorMetricList := flag.String("floor-metrics", "", "comma-separated metrics to gate against the absolute -floor value (higher is better)")
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "hesgx-benchdiff: -base and -new are required")
		os.Exit(2)
	}
	if *maxRatio <= 0 {
		fmt.Fprintln(os.Stderr, "hesgx-benchdiff: -max-ratio must be positive")
		os.Exit(2)
	}
	if *minRatio <= 0 {
		fmt.Fprintln(os.Stderr, "hesgx-benchdiff: -min-ratio must be positive")
		os.Exit(2)
	}

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hesgx-benchdiff:", err)
		os.Exit(2)
	}
	cand, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hesgx-benchdiff:", err)
		os.Exit(2)
	}

	watched := map[string]bool{}
	for _, m := range strings.Split(*metricList, ",") {
		if m = strings.TrimSpace(m); m != "" {
			watched[m] = true
		}
	}
	minWatched := map[string]bool{}
	for _, m := range strings.Split(*minMetricList, ",") {
		if m = strings.TrimSpace(m); m != "" {
			minWatched[m] = true
		}
	}
	floorWatched := map[string]bool{}
	for _, m := range strings.Split(*floorMetricList, ",") {
		if m = strings.TrimSpace(m); m != "" {
			floorWatched[m] = true
		}
	}

	baseByName := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}

	failed := 0
	seen := map[string]bool{}
	for _, nb := range cand.Benchmarks {
		seen[nb.Name] = true
		// Absolute floors gate the new run alone — no baseline required.
		for metric := range floorWatched {
			nv, ok := nb.Metrics[metric]
			if !ok {
				continue
			}
			verdict := "ok"
			if nv < *floorValue {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("%-5s %-40s %-12s new=%.4g (absolute floor %.2f) %s\n",
				"floor", nb.Name, metric, nv, *floorValue, verdict)
		}
		bb, ok := baseByName[nb.Name]
		if !ok {
			fmt.Printf("NEW   %-40s (no baseline; not gated by ratios)\n", nb.Name)
			continue
		}
		for metric := range watched {
			bv, bok := bb.Metrics[metric]
			nv, nok := nb.Metrics[metric]
			if !bok || !nok {
				continue
			}
			if bv <= 0 {
				// A zero baseline makes every ratio infinite; skip rather
				// than fail on a degenerate denominator.
				fmt.Printf("SKIP  %-40s %-12s baseline %.4g\n", nb.Name, metric, bv)
				continue
			}
			ratio := nv / bv
			verdict := "ok"
			if ratio > *maxRatio {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("%-5s %-40s %-12s base=%.4g new=%.4g ratio=%.2f (limit %.2f) %s\n",
				"diff", nb.Name, metric, bv, nv, ratio, *maxRatio, verdict)
		}
		for metric := range minWatched {
			bv, bok := bb.Metrics[metric]
			nv, nok := nb.Metrics[metric]
			if !bok || !nok {
				continue
			}
			if bv <= 0 {
				fmt.Printf("SKIP  %-40s %-12s baseline %.4g\n", nb.Name, metric, bv)
				continue
			}
			// Higher is better: the gate trips when throughput falls to less
			// than min-ratio of the baseline.
			ratio := nv / bv
			verdict := "ok"
			if ratio < *minRatio {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("%-5s %-40s %-12s base=%.4g new=%.4g ratio=%.2f (floor %.2f) %s\n",
				"diff", nb.Name, metric, bv, nv, ratio, *minRatio, verdict)
		}
	}
	for name := range baseByName {
		if !seen[name] {
			fmt.Printf("GONE  %-40s (in baseline, missing from new run; not gated)\n", name)
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "hesgx-benchdiff: %d metric(s) regressed past tolerance\n", failed)
		os.Exit(1)
	}
	fmt.Printf("hesgx-benchdiff: no regression past tolerance across %d benchmarks\n", len(cand.Benchmarks))
}

func load(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &r, nil
}
