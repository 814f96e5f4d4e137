// Command hesgx-loadgen drives a hesgx edge server with encrypted
// inference load and grades the run against latency/shed/trace SLOs.
//
// Usage:
//
//	hesgx-loadgen -addr host:7700 [-clients 4] [-rate 0] [-duration 10s]
//	              [-shapes 1x8x8:1] [-no-trace]
//	              [-slo-p50 0] [-slo-p99 0] [-max-shed-rate -1]
//	              [-require-joined] [-status-interval 1s] [-json]
//	hesgx-loadgen -selftest [-require-no-bundles] [flags...]
//
// Closed loop by default: -clients connections each keep one request in
// flight. A positive -rate switches to open loop — arrivals at a fixed
// rate with latency measured from the scheduled arrival, the honest way
// to observe shedding. With -selftest the generator spins up an
// in-process reference server (batching parameters, lane scheduler,
// zero-cost SGX simulation) and drives itself — the CI soak mode.
//
// Exit status: 0 when the run met every SLO, 1 when the run itself
// failed to execute, 2 when it ran but violated an SLO.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hesgx/internal/diag"
	"hesgx/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "edge server address (required unless -selftest)")
	selftest := flag.Bool("selftest", false, "spin up an in-process reference server and drive it")
	clients := flag.Int("clients", 4, "client connections (closed-loop concurrency)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	shapes := flag.String("shapes", "1x8x8:1", "request-shape mix as CxHxW[:weight],...")
	pixelScale := flag.Uint64("pixel-scale", 63, "fixed-point pixel scale")
	noTrace := flag.Bool("no-trace", false, "disable distributed tracing (drop the traced request envelope)")
	statusInterval := flag.Duration("status-interval", time.Second, "status line cadence (negative: off)")
	seed := flag.Uint64("seed", 1, "PRNG seed for the shape mix and image contents")
	sloP50 := flag.Duration("slo-p50", 0, "fail when end-to-end p50 exceeds this (0: unchecked)")
	sloP99 := flag.Duration("slo-p99", 0, "fail when end-to-end p99 exceeds this (0: unchecked)")
	maxShed := flag.Float64("max-shed-rate", -1, "fail when shed rate exceeds this; 0 demands shed-free (negative: unchecked)")
	requireJoined := flag.Bool("require-joined", false, "fail unless every traced request assembled a joined end-to-end trace")
	requireNoBundles := flag.Bool("require-no-bundles", false, "with -selftest: fail when the run triggers any diagnostic bundle")
	jsonOut := flag.Bool("json", false, "print the summary as JSON")
	flag.Parse()

	shapeMix, err := loadgen.ParseShapes(*shapes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	target := *addr
	var srv *loadgen.Selftest
	if *selftest {
		srv, err = loadgen.StartSelftest(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		target = srv.Addr()
		fmt.Fprintf(os.Stderr, "selftest server on %s\n", target)
	} else if target == "" {
		fmt.Fprintln(os.Stderr, "hesgx-loadgen: -addr or -selftest required")
		return 1
	}
	if *requireNoBundles && srv == nil {
		fmt.Fprintln(os.Stderr, "hesgx-loadgen: -require-no-bundles needs -selftest")
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sum, err := loadgen.Run(ctx, loadgen.Config{
		Addr:           target,
		Clients:        *clients,
		Rate:           *rate,
		Duration:       *duration,
		Shapes:         shapeMix,
		PixelScale:     *pixelScale,
		Trace:          !*noTrace,
		StatusInterval: *statusInterval,
		Out:            os.Stderr,
		Seed:           *seed,
		SLOP50:         *sloP50,
		SLOP99:         *sloP99,
		MaxShedRate:    *maxShed,
		RequireJoined:  *requireJoined,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sum)
	} else {
		fmt.Printf("sent %d  ok %d  shed %d  failed %d  (%.1f img/s over %v)\n",
			sum.Sent, sum.OK, sum.Shed, sum.Failed, sum.Throughput, sum.Duration.Round(time.Millisecond))
		fmt.Printf("latency p50 %v  p99 %v  max %v  shed rate %.3f\n",
			sum.P50.Round(time.Microsecond), sum.P99.Round(time.Microsecond),
			sum.Max.Round(time.Microsecond), sum.ShedRate)
		if sum.MeanLanes > 0 {
			fmt.Printf("server: mean lanes %.2f  queue p99 %.2fms  lane wait p99 %.2fms  joined traces %d/%d\n",
				sum.MeanLanes, sum.ServerQueueP99MS, sum.ServerLaneWaitP99MS, sum.JoinedTraces, sum.OK)
		}
	}
	if len(sum.Violations) > 0 {
		for _, v := range sum.Violations {
			fmt.Fprintf(os.Stderr, "SLO VIOLATION: %s\n", v)
		}
		return 2
	}
	if *requireNoBundles {
		// Let a trigger that landed in the run's final moments clear the
		// capturer's settle delay before declaring the run bundle-free.
		time.Sleep(diag.DefaultSettle + 200*time.Millisecond)
		if n := srv.Captures(); n > 0 {
			fmt.Fprintf(os.Stderr, "DIAG VIOLATION: healthy run triggered %d postmortem bundle(s) in %s\n", n, srv.DiagDir())
			for _, e := range srv.Events() {
				fmt.Fprintf(os.Stderr, "  event %s [%s] %s\n", e.Type, e.Severity, e.Message)
			}
			return 2
		}
		fmt.Fprintln(os.Stderr, "no diagnostic bundles triggered")
	}
	fmt.Fprintln(os.Stderr, "all SLOs met")
	return 0
}
