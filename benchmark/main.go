// Command benchmark is the repo's inference ledger: it stands up the real
// serving stack in-process (calibrated SGX platform, enclave service,
// engine over the paper CNN, serve.Service, wire server on loopback TCP),
// drives one named workload with closed-loop wire clients, checks every
// reply bit-exactly against the plaintext integer oracle and prints every
// metric by name and unit.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out file]
//	benchmark compare <a.jsonl> <b.jsonl>
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// client tracer and no benchmark spans. With --trace 1 it reports the
// per-layer metrics from a staged run in which the benchmark performs each
// stage through the layers' public functions under its own spans, written
// to benchmark/out/<workload>.trace.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hesgx/internal/sgx"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.jsonl> <b.jsonl>")
			return 2
		}
		return compare(os.Stdout, args[1], args[2])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the image pixels (model, keys and SGX jitter are fixed)")
	seconds := fs.Float64("seconds", 18, "length of the measured phase on the reference machine; sets the request count")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the staged, traced run")
	out := fs.String("out", "", "append the result as one JSON line to this file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// The slowest run (lane_2c traced) takes under a minute; a run that is
	// still going after this long is hung, and the driver allows 180 s.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: still running after 170 s, giving up\n", wl.name)
		os.Exit(3)
	})
	rc := runConfig{wl: wl, model: paperModel, cost: sgx.Calibrated(), seed: *seed, seconds: *seconds}
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(rc, "benchmark/out")
	} else {
		res, err = runUntraced(rc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: wl.name, Seed: *seed, Trace: *traced, result: *res}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// record is one line of a result file: a run's result line plus the
// arguments that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
