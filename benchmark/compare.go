package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounts are the traced-run metrics that count work rather than time
// it: two runs of one commit must report them identically, whatever the
// seed.
var exactCounts = []string{
	"core.client.cts_per_image", "sgx.ecalls",
	"ring.ntt_fwd", "ring.ntt_inv", "ring.limb_muls", "ring.rotations",
	"he.keyswitch_ops", "he.hoisted_rotations", "setup.galois_upload_bytes",
}

// readRecords loads a result file written with --out: one record a line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Metrics == nil {
			return nil, fmt.Errorf("%s:%d: no result", path, line)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// column collects one metric's values over the runs of one workload and
// trace mode.
func column(recs []record, workload string, trace int, metric string) (vals []float64) {
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// worsening is how far b is worse than a, as a share of a, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, per workload and end-to-end metric, the median of each
// file's runs, their ratio and the metric's bound, then checks that the
// exact-count layer metrics agree. It returns 1 when the second file is
// worse than the first by more than a bound, a count differs, or either
// file holds a failed run; 2 when a file cannot be read.
func compare(w io.Writer, pathA, pathB string) int {
	var sets [2][]record
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
			return 2
		}
		sets[i] = recs
	}
	return compareRecords(w, sets[0], sets[1])
}

func compareRecords(w io.Writer, a, b []record) int {
	status := 0
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if !r.Correct || r.Failed != 0 {
				fmt.Fprintf(w, "FAILED RUN  %s seed %d trace %d: correct=%v failed=%d/%d\n",
					r.Workload, r.Seed, r.Trace, r.Correct, r.Failed, r.Attempted)
				status = 1
			}
		}
	}
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %8s %7s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := column(a, wl.name, 0, d.name), column(b, wl.name, 0, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := ""
			if worsening(ma, mb, d.better) > d.bound {
				verdict = "  EXCEEDED"
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-26s %14.4f %14.4f %8.4f %6.0f%%%s\n",
				wl.name, d.name, ma, mb, mb/ma, d.bound*100, verdict)
		}
	}
	for _, wl := range workloads {
		for _, name := range exactCounts {
			vals := append(column(a, wl.name, 1, name), column(b, wl.name, 1, name)...)
			for _, v := range vals {
				if v != vals[0] {
					fmt.Fprintf(w, "COUNT DIFFERS  %s %s: %v\n", wl.name, name, vals)
					status = 1
					break
				}
			}
		}
	}
	return status
}
