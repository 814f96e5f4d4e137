package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the traced
// phases began; Parent is -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, request int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNS: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// durations returns the length in ms of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// spanCostNS measures what one begin/end pair costs, so the staged
// pipeline's own tracing can be charged per request without differencing
// two multi-second passes whose noise is a thousand times larger.
func spanCostNS() float64 {
	const pairs = 20000
	r := newRecorder()
	r.spans = make([]span, 0, pairs)
	start := time.Now()
	for i := 0; i < pairs; i++ {
		r.end(r.begin("calibration", -1, 0))
	}
	return float64(time.Since(start).Nanoseconds()) / pairs
}

// stagedStages are the spans whose sum must reconcile with the wire
// latency, in pipeline order.
var stagedStages = []string{
	"core.client.encrypt", "wire.encode_request", "wire.decode_request",
	"serve.infer", "wire.encode_reply", "wire.decode_reply", "core.client.decrypt",
}

// staged is what one staged request leaves behind for the direct pass and
// the cross-checks.
type staged struct {
	img         *nn.Tensor
	decoded     *core.CipherImage // as the server decoded it
	requestSize int               // encoded request bytes
	cts         int               // ciphertexts up plus ciphertexts down
	logits      []float64
	budgetBits  float64 // smallest noise budget among the reply logits
	stagesMS    float64 // sum of this request's stage spans
	serveMS     float64 // its serve.infer span
	err         error
}

// tracedRun is the traced half of the benchmark: the stack, a recorder
// and a second engine whose enclave calls go through opRecorder.
type tracedRun struct {
	*session
	rec     *recorder
	engine2 *core.HybridEngine
	ops     *opRecorder
}

// benchClient provisions a core.Client in-process: the staged pipeline
// needs the codec between encrypt and upload, which wire.Client hides.
func (t *tracedRun) benchClient() (*core.Client, error) {
	cl, err := core.NewClient()
	if err != nil {
		return nil, err
	}
	payload, err := t.svc.ProvisionKeys(cl.ECDHPublicKey())
	if err != nil {
		return nil, err
	}
	return cl, cl.InstallProvisionPayload(payload)
}

// stagedRequest performs one inference through the layers' public
// functions, a span around each call, with a byte buffer where the wire
// path has a socket.
func (t *tracedRun) stagedRequest(cl *core.Client, img *nn.Tensor, request int) staged {
	out := staged{img: img}
	pixel := t.rc.model.pixel
	root := t.rec.begin("request", -1, request)
	defer t.rec.end(root)
	// stage runs fn under a span and reports whether the pipeline goes on.
	stage := func(name string, fn func() error) bool {
		id := t.rec.begin(name, root, request)
		start := time.Now()
		out.err = fn()
		d := ms(time.Since(start))
		t.rec.end(id)
		out.stagesMS += d
		if name == "serve.infer" {
			out.serveMS = d
		}
		return out.err == nil
	}

	var buf *bytes.Buffer
	if t.rc.wl.packed {
		var ci *core.CipherImage
		ok := stage("core.client.encrypt", func() (err error) {
			ci, err = cl.EncryptImagePacked(img, pixel)
			return err
		}) && stage("wire.encode_request", func() error {
			buf = bytes.NewBuffer(make([]byte, 0, core.CipherImagePackedSize(ci)))
			return core.WriteCipherImagePacked(buf, ci)
		})
		if !ok {
			return out
		}
		out.cts = len(ci.CTs)
	} else {
		var si *core.SeededCipherImage
		ok := stage("core.client.encrypt", func() (err error) {
			si, err = cl.EncryptImageSeeded(img, pixel)
			return err
		}) && stage("wire.encode_request", func() error {
			buf = bytes.NewBuffer(make([]byte, 0, core.SeededCipherImageSize(si)))
			return core.WriteSeededCipherImage(buf, si)
		})
		if !ok {
			return out
		}
		out.cts = len(si.CTs)
	}
	out.requestSize = buf.Len()

	var res *serve.Result
	var reply []byte
	var cts []*he.Ciphertext
	ok := stage("wire.decode_request", func() (err error) {
		out.decoded, _, err = core.UnmarshalCipherImageAuto(buf.Bytes(), t.params)
		return err
	}) && stage("serve.infer", func() (err error) {
		res, err = t.service.Infer(context.Background(), serve.Request{Image: out.decoded})
		return err
	}) && stage("wire.encode_reply", func() (err error) {
		reply, err = core.MarshalCiphertextBatchPacked(res.Logits)
		return err
	}) && stage("wire.decode_reply", func() (err error) {
		cts, err = core.UnmarshalCiphertextBatchAny(reply, cl.Params)
		return err
	}) && stage("core.client.decrypt", func() (err error) {
		out.logits, err = cl.DecryptLogits(cts, res.OutScale)
		return err
	})
	if !ok {
		return out
	}
	if want := t.wantMode(); res.Mode != want {
		out.err = fmt.Errorf("served in mode %q, workload wants %q", res.Mode, want)
		return out
	}
	out.cts += len(cts)
	out.budgetBits, out.err = minBudget(cl, cts)
	return out
}

func (t *tracedRun) wantMode() string {
	switch {
	case t.rc.wl.packed:
		return serve.ModePacked
	case t.rc.wl.lanes:
		return serve.ModeLane
	}
	return serve.ModeScalar
}

func minBudget(cl *core.Client, cts []*he.Ciphertext) (float64, error) {
	lowest := 0.0
	for i, ct := range cts {
		b, err := cl.NoiseBudget(ct)
		if err != nil {
			return 0, err
		}
		if i == 0 || b < lowest {
			lowest = b
		}
	}
	return lowest, nil
}

// stagedRound runs one staged request per client concurrently (a lane
// round needs its mates in flight together) and returns them in client
// order.
func (t *tracedRun) stagedRound(cls []*core.Client, round int) []staged {
	out := make([]staged, len(cls))
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			out[i] = t.stagedRequest(cl, t.gens[i].next(), round*len(cls)+i)
		}(i, cl)
	}
	wg.Wait()
	return out
}

// opCost is one enclave non-linear call as the engine paid for it.
type opCost struct {
	kind core.OpKind
	wall time.Duration
	sgx  sgx.Stats
}

// opRecorder is the benchmark-owned core.NonlinearCaller: a span by
// op.Kind around every svc.Nonlinear call, bracketed by platform
// snapshots. The engine issues the calls of one inference sequentially
// and the direct pass runs alone, so the deltas are that call's.
type opRecorder struct {
	svc      *core.EnclaveService
	platform *sgx.Platform
	rec      *recorder
	parent   int
	request  int
	ops      []opCost
}

func (o *opRecorder) Nonlinear(ctx context.Context, op core.NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	id := o.rec.begin("core.enclave."+op.Kind.String(), o.parent, o.request)
	before := o.platform.Snapshot()
	start := time.Now()
	out, err := o.svc.Nonlinear(ctx, op, cts)
	wall := time.Since(start)
	delta := o.platform.Snapshot().Sub(before)
	o.rec.end(id)
	o.ops = append(o.ops, opCost{kind: op.Kind, wall: wall, sgx: delta})
	return out, err
}

// heCounters are the program's exact work counters.
type heCounters struct {
	nttFwd, nttInv, limbMuls, rotations, keySwitch, hoisted uint64
}

func (t *tracedRun) readHE() heCounters {
	var c heCounters
	c.nttFwd, c.nttInv = t.params.Ring().NTTCounts()
	c.limbMuls, _ = ring.RNSCounts()
	c.rotations = ring.RotationCount()
	c.keySwitch = he.KeySwitchOps()
	c.hoisted = he.HoistedRotations()
	return c
}

// directPass is the server-side work of one engine pass, attributed.
type directPass struct {
	images        int
	engineMS      float64
	activationMS  float64
	poolMS        float64
	lanePackMS    float64
	laneDemuxMS   float64
	opsInEngineMS float64 // enclave-op walls inside engine.infer
	opsMS         float64 // all enclave-op walls, lane repack included
	sgx           sgx.Stats
	he            heCounters
	failed        int
	err           error
}

// direct sends the decoded images of one staged round through the second
// engine: lane rounds as lane_pack → one SIMD pass → lane_demux, the way
// serve's lane packer does it, everything else as one engine pass.
func (t *tracedRun) direct(cl *core.Client, round []staged, request int) directPass {
	dp := directPass{images: len(round)}
	root := t.rec.begin("engine_pass", -1, request)
	defer t.rec.end(root)
	t.ops.parent, t.ops.request, t.ops.ops = root, request, nil
	ctx := context.Background()
	he0 := t.readHE()

	img := round[0].decoded
	if t.rc.wl.lanes {
		var flat []*he.Ciphertext
		for _, st := range round {
			flat = append(flat, st.decoded.CTs...)
		}
		packed, err := t.ops.Nonlinear(ctx, core.NonlinearOp{Kind: core.OpLanePack, Lanes: len(round)}, flat)
		if err != nil {
			dp.err = err
			return dp
		}
		img = &core.CipherImage{Channels: img.Channels, Height: img.Height, Width: img.Width,
			CTs: packed, Scale: img.Scale, Lanes: len(round)}
	}
	id := t.rec.begin("core.engine.infer", root, request)
	t.ops.parent = id
	opsBefore := len(t.ops.ops)
	start := time.Now()
	res, err := t.engine2.InferContext(ctx, img)
	dp.engineMS = ms(time.Since(start))
	t.rec.end(id)
	t.ops.parent = root
	if err != nil {
		dp.err = err
		return dp
	}
	inEngine := t.ops.ops[opsBefore:]
	logits := res.Logits
	if t.rc.wl.lanes {
		if logits, err = t.ops.Nonlinear(ctx, core.NonlinearOp{Kind: core.OpLaneDemux, Lanes: len(round)}, logits); err != nil {
			dp.err = err
			return dp
		}
	}
	he1 := t.readHE()
	dp.he = heCounters{
		nttFwd: he1.nttFwd - he0.nttFwd, nttInv: he1.nttInv - he0.nttInv,
		limbMuls: he1.limbMuls - he0.limbMuls, rotations: he1.rotations - he0.rotations,
		keySwitch: he1.keySwitch - he0.keySwitch, hoisted: he1.hoisted - he0.hoisted,
	}

	for _, op := range inEngine {
		dp.opsInEngineMS += ms(op.wall)
	}
	for _, op := range t.ops.ops {
		w := ms(op.wall)
		dp.opsMS += w
		switch op.kind {
		case core.OpSigmoid, core.OpActivation:
			dp.activationMS += w
		case core.OpPoolDivide, core.OpPoolFull, core.OpPoolMax, core.OpPoolUnpack:
			dp.poolMS += w
		case core.OpLanePack:
			dp.lanePackMS += w
		case core.OpLaneDemux:
			dp.laneDemuxMS += w
		}
		dp.sgx.ECalls += op.sgx.ECalls
		dp.sgx.OCalls += op.sgx.OCalls
		dp.sgx.PageFaults += op.sgx.PageFaults
		dp.sgx.EnclaveCompute += op.sgx.EnclaveCompute
		dp.sgx.InjectedOverhead += op.sgx.InjectedOverhead
	}

	// Each image's share of the pass must still be the oracle's answer.
	per := len(logits) / len(round)
	for i, st := range round {
		got, err := cl.DecryptLogits(logits[i*per:(i+1)*per], res.OutScale)
		ok := err == nil
		if ok {
			ok, err = t.exact(st.img, got)
		}
		if err != nil || !ok {
			dp.failed++
		}
	}
	return dp
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracerOverhead is the cost of the program's own client tracer on this
// workload: the same requests alternated between a client dialled with
// wire.WithClientTracer(nil) and the untraced one, traced p50 minus
// untraced p50. Both connections exist at once but only one is in flight.
// The tracer works outside the enclave, so as in closure each latency
// enters as its time outside the enclave; whole latencies differ by tens
// of milliseconds for reasons the tracer has no part in.
func (t *tracedRun) tracerOverhead(requests int) (float64, []sample, error) {
	tc, err := t.dial(wire.WithClientTracer(nil))
	if err != nil {
		return 0, nil, err
	}
	defer tc.Close()
	plain := t.clients[0]
	var tracedMS, plainMS []float64
	var all []sample
	for i := -1; i < requests; i++ { // round -1 warms the new connection
		for _, c := range []*wire.Client{plain, tc} {
			sm := sample{img: t.gens[0].next()}
			before := t.platform.Snapshot()
			t0 := time.Now()
			sm.logits, sm.err = t.infer(c, sm.img)
			sm.latency = time.Since(t0)
			rest := ms(sm.latency) - enclaveMS(t.platform.Snapshot().Sub(before))
			t.replies++
			all = append(all, sm)
			switch {
			case i < 0:
			case c == tc:
				tracedMS = append(tracedMS, rest)
			default:
				plainMS = append(plainMS, rest)
			}
		}
	}
	return median(tracedMS) - median(plainMS), all, nil
}

// runTraced produces the per-layer metrics and writes the spans to
// outDir/<workload>.trace.json.
func runTraced(rc runConfig, outDir string) (*result, error) {
	se, err := openSession(rc)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{session: se}
	res, err := t.run()
	if cerr := se.shutdown(); err == nil && cerr != nil {
		err = fmt.Errorf("server: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if err := t.writeTrace(outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// enclaveMS is the time a platform delta spent in the enclave: trusted
// compute plus the delay the cost model injected for it.
func enclaveMS(d sgx.Stats) float64 { return ms(d.EnclaveCompute + d.InjectedOverhead) }

// ledger is everything the rounds of a traced run collect.
type ledger struct {
	wire   []sample
	rounds [][]staged
	passes []directPass
	// Time outside the enclave per wire request, per staged request, per
	// staged serve.infer and per direct pass (see closure in arith.go).
	wireRestMS, stagedRestMS, serveRestMS, engineRestMS []float64
	stagedKeySwitch                                     uint64
	failed                                              int
}

// collect takes one image per client three ways per round, back to back:
// over the wire untraced (the whole the stages must add up to), staged
// through the layers' public functions, and decoded through the second
// engine. Alternating them keeps heap growth from favouring whichever
// would otherwise run last.
func (t *tracedRun) collect(cls []*core.Client) (*ledger, error) {
	lg := &ledger{}
	n := t.rc.wl.tracedRequests
	for r := 0; r < n; r++ {
		before := t.platform.Snapshot()
		sm, _ := t.closedLoop(1)
		enclave := enclaveMS(t.platform.Snapshot().Sub(before))
		lg.wire = append(lg.wire, sm...)
		for _, s := range sm {
			lg.wireRestMS = append(lg.wireRestMS, ms(s.latency)-enclave)
		}

		before = t.platform.Snapshot()
		ks0 := he.KeySwitchOps()
		round := t.stagedRound(cls, r)
		lg.stagedKeySwitch += he.KeySwitchOps() - ks0
		enclave = enclaveMS(t.platform.Snapshot().Sub(before))
		for _, st := range round {
			if st.err != nil {
				return nil, fmt.Errorf("staged request: %w", st.err)
			}
			if ok, err := t.exact(st.img, st.logits); err != nil || !ok {
				lg.failed++
			}
			lg.stagedRestMS = append(lg.stagedRestMS, st.stagesMS-enclave)
			lg.serveRestMS = append(lg.serveRestMS, st.serveMS-enclave)
		}
		lg.rounds = append(lg.rounds, round)

		dp := t.direct(cls[0], round, (n+r)*len(cls))
		if dp.err != nil {
			return nil, fmt.Errorf("direct engine pass: %w", dp.err)
		}
		lg.failed += dp.failed
		lg.passes = append(lg.passes, dp)
		lg.engineRestMS = append(lg.engineRestMS, dp.engineMS+dp.lanePackMS+dp.laneDemuxMS-enclaveMS(dp.sgx))
	}
	return lg, nil
}

// prepare builds what only the traced run needs: one benchmark client per
// wire client, the recorder, and the second engine whose enclave calls the
// benchmark records.
func (t *tracedRun) prepare() ([]*core.Client, error) {
	var cls []*core.Client
	for range t.clients {
		cl, err := t.benchClient()
		if err != nil {
			return nil, fmt.Errorf("benchmark client: %w", err)
		}
		cls = append(cls, cl)
	}
	var err error
	if t.engine2, err = t.newEngine(); err != nil {
		return nil, fmt.Errorf("second engine: %w", err)
	}
	if t.rc.wl.packed {
		gk, err := cls[0].GenerateGaloisKeys(t.rc.model.rotationSteps(), 0)
		if err != nil {
			return nil, err
		}
		if err := t.engine2.InstallGaloisKeys(gk); err != nil {
			return nil, err
		}
	}
	t.rec = newRecorder()
	t.ops = &opRecorder{svc: t.svc, platform: t.platform, rec: t.rec}
	t.engine2.SetNonlinearCaller(t.ops)
	return cls, nil
}

func (t *tracedRun) run() (*result, error) {
	wl := t.rc.wl
	setup := t.times // later dials (tracerOverhead) must not count as set-up
	cls, err := t.prepare()
	if err != nil {
		return nil, err
	}
	if err = t.waitReplies(t.replies); err != nil {
		return nil, err
	}
	from := t.readCounters()
	laneReq0 := t.metrics.Counter("serve.lanes.requests").Value()
	occ0 := t.metrics.Histogram("serve.lane.occupancy").Snapshot()

	lg, err := t.collect(cls)
	if err != nil {
		return nil, err
	}
	if err = t.waitReplies(t.replies); err != nil {
		return nil, err
	}
	wireBytesIn := t.readCounters().bytesIn - from.bytesIn
	samples := lg.wire
	staged := 0
	for _, round := range lg.rounds {
		staged += len(round)
	}

	overheadMS := 0.0
	if wl.tracerOverhead {
		var extra []sample
		if overheadMS, extra, err = t.tracerOverhead(wl.tracedRequests); err != nil {
			return nil, fmt.Errorf("tracer overhead: %w", err)
		}
		samples = append(samples, extra...)
		if err = t.waitReplies(t.replies); err != nil {
			return nil, err
		}
	}
	to := t.readCounters()

	failed := lg.failed + t.failures(samples)
	attempted := len(samples) + 2*staged // each staged image also took a direct pass
	why := offPath(wl, from, to, len(samples)+staged)
	if wl.packed && why == "" {
		// The staged requests and the direct passes must each have rotated.
		for _, dp := range lg.passes {
			if dp.he.keySwitch == 0 {
				why = "direct packed pass performed no key-switch"
			}
		}
		if lg.stagedKeySwitch == 0 {
			why = "staged packed requests performed no key-switch"
		}
	}
	if why != "" {
		logf("path assertion failed: %s", why)
		failed = attempted
	}
	res := newResult(attempted, failed)

	// Client view of the wire requests.
	lat := make([]float64, 0, len(lg.wire))
	for _, sm := range lg.wire {
		lat = append(lat, ms(sm.latency))
	}
	p50 := median(lat)
	res.set("client.latency_p50_ms", p50)
	res.set("client.latency_p75_ms", percentile(lat, 75))
	res.set("client.latency_max_ms", percentile(lat, 100))
	res.set("client.latency_samples", float64(len(lat)))

	// Staged stages, and their closure against the wire latency.
	stage := func(name string) float64 { return median(t.rec.durations(name)) }
	res.set("core.client.encrypt_ms", stage("core.client.encrypt"))
	res.set("core.client.decrypt_ms", stage("core.client.decrypt"))
	res.set("core.client.cts_per_image", float64(lg.rounds[0][0].cts))
	res.set("wire.encode_request_ms", stage("wire.encode_request"))
	res.set("wire.decode_request_ms", stage("wire.decode_request"))
	res.set("wire.encode_reply_ms", stage("wire.encode_reply"))
	res.set("wire.decode_reply_ms", stage("wire.decode_reply"))
	ratio, transport := closure(lg.wireRestMS, lg.stagedRestMS, p50)
	res.set("wire.transport_ms", transport)
	res.set("wire.closure_ratio", ratio)
	if !closes(ratio) {
		res.invalidate("staged stages leave %.1f ms of a %.1f ms wire p50 unattributed: closure %.3f outside %.2f–%.2f",
			transport, p50, ratio, closureMin, closureMax)
	}

	// Byte accounting: each wire request's upload must be the codec's size
	// plus one frame header.
	upload := float64(wireBytesIn) / float64(len(lg.wire))
	if want := float64(lg.rounds[0][0].requestSize + wireFrameHeaderBytes); upload != want {
		res.invalidate("upload of %.0f B per image, codec size plus frame header is %.0f B", upload, want)
	}

	// Direct-engine passes: medians over passes, counts per image.
	col := func(f func(directPass) float64) float64 {
		xs := make([]float64, len(lg.passes))
		for i, dp := range lg.passes {
			xs[i] = f(dp)
		}
		return median(xs)
	}
	perImage := func(f func(directPass) uint64) float64 {
		return col(func(dp directPass) float64 { return float64(f(dp)) / float64(dp.images) })
	}
	injectedMS := col(func(dp directPass) float64 { return ms(dp.sgx.InjectedOverhead) })
	res.set("serve.infer_ms", stage("serve.infer"))
	res.set("serve.overhead_ms", median(lg.serveRestMS)-median(lg.engineRestMS))
	res.set("core.engine.infer_ms", col(func(dp directPass) float64 { return dp.engineMS }))
	res.set("core.engine.linear_ms", col(func(dp directPass) float64 { return dp.engineMS - dp.opsInEngineMS }))
	res.set("core.enclave.activation_ms", col(func(dp directPass) float64 { return dp.activationMS }))
	res.set("core.enclave.pool_ms", col(func(dp directPass) float64 { return dp.poolMS }))
	res.set("core.enclave.lane_pack_ms", col(func(dp directPass) float64 { return dp.lanePackMS }))
	res.set("core.enclave.lane_demux_ms", col(func(dp directPass) float64 { return dp.laneDemuxMS }))
	res.set("core.enclave.codec_ms", col(func(dp directPass) float64 { return dp.opsMS - enclaveMS(dp.sgx) }))
	res.set("sgx.ecalls", perImage(func(dp directPass) uint64 { return dp.sgx.ECalls }))
	res.set("sgx.page_faults", perImage(func(dp directPass) uint64 { return dp.sgx.PageFaults }))
	res.set("sgx.enclave_compute_ms", col(func(dp directPass) float64 { return ms(dp.sgx.EnclaveCompute) }))
	res.set("sgx.injected_ms", injectedMS)
	res.set("sgx.net_of_injected_p50_ms", p50-injectedMS)
	for _, dp := range lg.passes {
		if enclaveMS(dp.sgx) > dp.opsMS {
			res.invalidate("enclave compute plus injected delay %.1f ms exceed the enclave-op walls %.1f ms", enclaveMS(dp.sgx), dp.opsMS)
		}
	}
	res.set("ring.ntt_fwd", perImage(func(dp directPass) uint64 { return dp.he.nttFwd }))
	res.set("ring.ntt_inv", perImage(func(dp directPass) uint64 { return dp.he.nttInv }))
	res.set("ring.limb_muls", perImage(func(dp directPass) uint64 { return dp.he.limbMuls }))
	res.set("ring.rotations", perImage(func(dp directPass) uint64 { return dp.he.rotations }))
	res.set("he.keyswitch_ops", perImage(func(dp directPass) uint64 { return dp.he.keySwitch }))
	res.set("he.hoisted_rotations", perImage(func(dp directPass) uint64 { return dp.he.hoisted }))

	budget := lg.rounds[0][0].budgetBits
	for _, round := range lg.rounds {
		for _, st := range round {
			budget = min(budget, st.budgetBits)
		}
	}
	res.set("he.logit_noise_budget_bits", budget)

	// Lane scheduler use over the served requests (0 with lanes off).
	occ := t.metrics.Histogram("serve.lane.occupancy").Snapshot()
	occupancy, fallbackShare := 0.0, 0.0
	if n := occ.Count - occ0.Count; n > 0 {
		occupancy = (occ.Sum - occ0.Sum) / float64(n)
	}
	if n := t.metrics.Counter("serve.lanes.requests").Value() - laneReq0; n > 0 {
		fallbackShare = float64(to.laneFallback-from.laneFallback) / float64(n)
	}
	res.set("serve.lane_occupancy", occupancy)
	res.set("serve.lane_fallback_share", fallbackShare)

	res.set("setup.params_ms", ms(setup.params))
	res.set("setup.enclave_keygen_ms", ms(setup.enclaveKeygen))
	res.set("setup.encode_weights_ms", ms(setup.encodeWeights))
	res.set("setup.attest_ms", ms(setup.attest))
	res.set("setup.galois_keys_ms", ms(setup.galoisKeys))
	res.set("setup.galois_upload_bytes", float64(setup.galoisUploadBytes))
	res.set("setup.warmup_ms", ms(setup.warmup))
	res.set("process.peak_rss_mb", peakRSSMiB())
	res.set("trace.overhead_ms", overheadMS)
	// One root span plus one per stage, per staged request.
	res.set("bench.span_overhead_ms", spanCostNS()*float64(len(stagedStages)+1)/1e6)
	logf("%s traced: %d wire samples, %d staged requests, %d direct passes",
		wl.name, len(lg.wire), staged, len(lg.passes))
	return res, nil
}

// writeTrace writes the spans kept in memory during the run.
func (t *tracedRun) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.rc.wl.name, t.rc.seed, t.rec.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.rc.wl.name+".trace.json"), b, 0o644)
}
