package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/wire"
)

// processStart anchors setup_s at process start, before flag parsing.
var processStart = time.Now()

// sample is one closed-loop request as its client saw it.
type sample struct {
	img     *nn.Tensor
	latency time.Duration
	logits  []float64
	err     error
}

// session is a stood-up stack with its attested, warmed-up clients.
type session struct {
	*stack
	clients []*wire.Client
	gens    []*imageGen
	// setup is process start to the first oracle-exact reply on every
	// client.
	setup time.Duration
	// replies counts inference replies received so far on all clients.
	replies uint64
}

// openSession performs the whole of setup_s: server stand-up, one attested
// connection per client and one verified warm-up inference on each.
func openSession(rc runConfig, opts ...wire.ClientOption) (*session, error) {
	st, err := newStack(rc)
	if err != nil {
		return nil, err
	}
	se := &session{stack: st}
	for i := 0; i < rc.wl.clients; i++ {
		c, err := st.dial(opts...)
		if err != nil {
			se.shutdown()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		se.clients = append(se.clients, c)
		se.gens = append(se.gens, newImageGen(rc.seed, i, rc.model))
	}
	warm, _ := se.closedLoop(1)
	for i, w := range warm {
		if w.err != nil {
			se.shutdown()
			return nil, fmt.Errorf("warm-up on client %d: %w", i, w.err)
		}
		if ok, err := st.exact(w.img, w.logits); err != nil || !ok {
			se.shutdown()
			return nil, fmt.Errorf("warm-up on client %d is not oracle-exact (err=%v)", i, err)
		}
		st.times.warmup = max(st.times.warmup, w.latency)
	}
	se.setup = time.Since(processStart)
	return se, nil
}

// shutdown closes every client connection, then drains the server.
func (se *session) shutdown() error {
	for _, c := range se.clients {
		c.Close()
	}
	se.clients = nil
	return se.close()
}

// closedLoop has every client issue `requests` inferences back to back,
// one in flight per connection, and returns the samples of all clients
// with the wall time from the first send to the last reply.
func (se *session) closedLoop(requests int) ([]sample, time.Duration) {
	out := make([][]sample, len(se.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range se.clients {
		wg.Add(1)
		go func(i int, c *wire.Client) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				sm := sample{img: se.gens[i].next()}
				t0 := time.Now()
				sm.logits, sm.err = se.infer(c, sm.img)
				sm.latency = time.Since(t0)
				out[i] = append(out[i], sm)
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	se.replies += uint64(len(all))
	return all, wall
}

// failures counts samples that errored or missed the integer oracle.
func (se *session) failures(samples []sample) int {
	failed := 0
	for _, sm := range samples {
		ok := sm.err == nil
		if ok {
			exact, err := se.exact(sm.img, sm.logits)
			ok = err == nil && exact
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// pathCounters are the program counters that tell which execution path
// served the requests, plus the wire byte totals.
type pathCounters struct {
	bytesIn, bytesOut        int64
	lanePacked, laneFallback int64
	keySwitchOps             uint64
}

func (se *session) readCounters() pathCounters {
	m := se.metrics
	return pathCounters{
		bytesIn:      m.Counter("wire.bytes_in").Value(),
		bytesOut:     m.Counter("wire.bytes_out").Value(),
		lanePacked:   m.Counter("serve.lanes.packed_requests").Value(),
		laneFallback: m.Counter("serve.lanes.fallback_requests").Value(),
		keySwitchOps: he.KeySwitchOps(),
	}
}

// offPath names the reason the requests between two counter readings were
// not served on the workload's path ("" when they were). A silent
// fallback would otherwise time a different program. Whether the packed
// plan is active is settled earlier: newEngine refuses a mismatch.
func offPath(wl workload, from, to pathCounters, requests int) string {
	ks := to.keySwitchOps - from.keySwitchOps
	switch {
	case wl.packed && ks == 0:
		return "packed workload performed no key-switch"
	case !wl.packed && ks != 0:
		return fmt.Sprintf("scalar-layout workload performed %d key-switches", ks)
	case wl.lanes && to.lanePacked-from.lanePacked != int64(requests):
		return fmt.Sprintf("%d of %d requests were lane-packed", to.lanePacked-from.lanePacked, requests)
	case wl.lanes && to.laneFallback != from.laneFallback:
		return fmt.Sprintf("%d requests fell back to scalar passes", to.laneFallback-from.laneFallback)
	case !wl.lanes && to.lanePacked != from.lanePacked:
		return "lane packer ran on a lanes-off workload"
	}
	return ""
}

// sizeRequests turns the --seconds budget into a fixed per-client request
// count, so throughput is images over the wall time they took and no
// request is cut by a window edge. The count depends on the arguments
// alone: every run of a workload does the same work, however fast the
// machine happens to be that minute.
func sizeRequests(seconds float64, wl workload) int {
	n := int(math.Round(seconds * 1000 / wl.nominalMS))
	return max(n, wl.minRequests, 1)
}

// runUntraced measures the end-to-end metrics: no client tracer, no
// benchmark spans.
func runUntraced(rc runConfig) (*result, error) {
	se, err := openSession(rc)
	if err != nil {
		return nil, err
	}
	requests := sizeRequests(rc.seconds, rc.wl)
	if err := se.waitReplies(se.replies); err != nil {
		se.shutdown()
		return nil, err
	}
	from := se.readCounters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples, wall := se.closedLoop(requests)
	runtime.ReadMemStats(&m1)
	// Byte totals are read only after every connection is closed and the
	// server has drained: sampled as the last Infer returns, bytes_out
	// can lag one reply.
	if err := se.shutdown(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	to := se.readCounters()

	attempted := len(samples)
	failed := se.failures(samples)
	if why := offPath(rc.wl, from, to, attempted); why != "" {
		logf("path assertion failed: %s", why)
		failed = attempted
	}
	images := float64(attempted - failed)
	lat := make([]float64, 0, attempted)
	for _, sm := range samples {
		lat = append(lat, ms(sm.latency))
	}
	res := newResult(attempted, failed)
	res.set("latency_p50_ms", median(lat))
	res.set("images_per_s", images/wall.Seconds())
	res.set("upload_bytes_per_image", float64(to.bytesIn-from.bytesIn)/float64(attempted))
	res.set("download_bytes_per_image", float64(to.bytesOut-from.bytesOut)/float64(attempted))
	res.set("alloc_mb_per_image", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(attempted)/(1<<20))
	res.set("setup_s", se.setup.Seconds())
	logf("%s: %d clients x %d requests, %d latency samples, measured phase %.2fs",
		rc.wl.name, rc.wl.clients, requests, attempted, wall.Seconds())
	logf("latencies ms: %.1f", lat)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
