// Command hesgx-bench2json converts `go test -bench` output into a stable
// JSON document so benchmark runs can be checked in and diffed across PRs.
// It understands the standard ns/op, B/op, and allocs/op columns as well as
// custom b.ReportMetric units such as bytes/image.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkLaneServing64' . | hesgx-bench2json -o BENCH_PR6.json
//
// With no -o flag the JSON is written to stdout. Non-benchmark lines (goos,
// goarch, pkg, cpu, PASS, ok) are captured as metadata or ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the checked-in document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hesgx-bench2json:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "hesgx-bench2json: no benchmark lines found in input")
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hesgx-bench2json:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hesgx-bench2json:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(buf); err != nil {
		fmt.Fprintln(os.Stderr, "hesgx-bench2json:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader) (*Report, error) {
	report := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(report.Benchmarks, func(i, j int) bool {
		return report.Benchmarks[i].Name < report.Benchmarks[j].Name
	})
	return report, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8  5  123 ns/op  456 B/op  7 allocs/op  89.5 NTTs/op
//
// The tail after the iteration count is (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, fmt.Errorf("want name, iterations, and value/unit pairs")
	}
	b := Benchmark{Metrics: map[string]float64{}}

	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			b.Procs = procs
			name = name[:i]
		}
	}
	b.Name = strings.TrimPrefix(name, "Benchmark")

	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	b.Iterations = iters

	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("metric %s: %w", fields[i+1], err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}
