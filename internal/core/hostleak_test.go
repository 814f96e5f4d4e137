package core

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"sort"
	"strings"
	"testing"

	"hesgx/internal/diag"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// hostView is everything the untrusted host observes about one ECALL
// besides the fresh ciphertexts it gets back: the span args (timings
// excluded), the metrics registry (timings excluded), the events published
// on the diagnostics bus and the error string.
type hostView struct {
	svc    *EnclaveService
	tracer *trace.Tracer
	bus    *diag.Bus
	seen   int
}

// observe runs op over cts and renders what the host saw as a string — two
// calls the host cannot tell apart render identically — with the batch the
// enclave returned.
func (h *hostView) observe(t *testing.T, op NonlinearOp, cts []*he.Ciphertext) (string, []*he.Ciphertext) {
	t.Helper()
	reg := stats.NewRegistry()
	h.svc.SetMetrics(reg)
	tr := h.tracer.Start("host")
	out, err := h.svc.Nonlinear(trace.With(context.Background(), tr), op, cts)
	h.tracer.Finish(tr)

	var lines []string
	for _, s := range tr.Spans() {
		for _, a := range s.Args {
			if !strings.HasSuffix(a.Key, "_ms") {
				lines = append(lines, fmt.Sprintf("span %s %s=%v", s.Name, a.Key, a.Val))
			}
		}
	}
	for k, v := range reg.Snapshot() {
		if !strings.Contains(k, "_ms") {
			lines = append(lines, fmt.Sprintf("metric %s=%v", k, v))
		}
	}
	events := h.bus.Recent(0)
	for _, e := range events[h.seen:] {
		lines = append(lines, fmt.Sprintf("event %s %s %s %v %v %s", e.Type, e.Severity, e.Stage, e.Value, e.Threshold, e.Message))
	}
	h.seen = len(events)
	lines = append(lines, fmt.Sprintf("error %v", err))
	sort.Strings(lines)
	return strings.Join(lines, "\n"), out
}

// refresh is observe for a one-ciphertext OpRefresh.
func (h *hostView) refresh(t *testing.T, ct *he.Ciphertext) string {
	t.Helper()
	view, _ := h.observe(t, NonlinearOp{Kind: OpRefresh}, []*he.Ciphertext{ct})
	return view
}

// TestHostCannotRecoverSecretKey plays the reaction attack an untrusted
// host could mount if anything it observes about a refresh depended on the
// decrypted noise. It crafts c = (c₀, c₁) with c₁ = k·Xⁱ and c₀ = Δ·m plus a
// margin B on the top coefficient only, so the phase noise is B + k·s[n−1−i]
// there and at most k elsewhere: with B > 2k and B + k < Δ/2 the worst noise
// magnitude — and anything derived from it — is one of three values that
// name a ternary secret coefficient. Three calibration ciphertexts (c₁ = 0,
// margins B−k, B, B+k) give the host labelled references. Every observation
// must be identical, so no secret coefficient is recoverable.
func TestHostCannotRecoverSecretKey(t *testing.T) {
	params := testParams(t)
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	host := &hostView{svc: svc, tracer: trace.NewTracer(4), bus: diag.NewBus(0, nil)}

	n, delta := params.N, params.Delta()
	const k, margin = 1 << 12, 1 << 14
	if margin <= 2*k || margin+k >= delta/2 {
		t.Fatalf("margin %d outside (2k, Δ/2−k) for k=%d, Δ=%d", margin, k, delta)
	}
	r := mrand.New(mrand.NewPCG(3, 5))
	mod := params.Ring().Mod
	craft := func(c1Shift int, noise int64) *he.Ciphertext {
		ct := he.NewCiphertext(params, 2)
		for j := range ct.Polys[0].Coeffs {
			ct.Polys[0].Coeffs[j] = mod.Mul(delta, r.Uint64N(params.T))
		}
		ct.Polys[0].Coeffs[n-1] = mod.Add(ct.Polys[0].Coeffs[n-1], uint64(noise))
		if c1Shift >= 0 {
			ct.Polys[1].Coeffs[c1Shift] = k
		}
		return ct
	}

	// Calibration: the observation that goes with each ternary value.
	calib := map[string][]int64{}
	for _, sigma := range []int64{-1, 0, 1} {
		v := host.refresh(t, craft(-1, margin+sigma*k))
		calib[v] = append(calib[v], sigma)
	}

	sk, err := he.UnmarshalSecretKey(svc.state.skBytes)
	if err != nil {
		t.Fatal(err)
	}
	const indices = 32
	first, differ, recovered := "", 0, 0
	for i := 0; i < indices; i++ {
		v := host.refresh(t, craft(i, margin))
		switch {
		case i == 0:
			first = v
		case v != first:
			if differ++; differ == 1 {
				t.Errorf("index %d: the host's view differs from index 0's:\n%s\n--- vs ---\n%s", i, v, first)
			}
		}
		secret := mod.Centered(sk.S.Coeffs[n-1-i])
		if labels := calib[v]; len(labels) == 1 && labels[0] == secret {
			recovered++
		}
	}
	t.Logf("host recovered %d/%d secret-key coefficients from %d distinct calibration views", recovered, indices, len(calib))
	if differ > 0 || recovered > 0 || len(calib) != 1 {
		t.Errorf("the host's view depends on the decrypted noise: %d/%d views differ, %d/%d secret coefficients recovered",
			differ, indices-1, recovered, indices)
	}
}

// TestPostDecryptionAudit drives every decrypting ECALL over well-formed
// headers and batches whose plaintexts hold 0, ±⌊t/2⌋ or random values in
// every coefficient: each call must succeed with the output count its header
// implies, and the host must see the same thing whatever the plaintexts, so
// no refusal, error or reported figure depends on a decrypted value.
func TestPostDecryptionAudit(t *testing.T) {
	s := newFusedStack(t, 1024)
	params := s.svc.Params()
	enc, err := he.NewEncryptor(s.svc.PublicKey(), ring.NewSeededSource(9))
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(9, 10))
	half := params.T / 2
	fills := []struct {
		name  string
		value func() uint64
	}{
		{"zero", func() uint64 { return 0 }},
		{"+t/2", func() uint64 { return half }},
		{"-t/2", func() uint64 { return params.T - half }},
		{"random", func() uint64 { return r.Uint64N(params.T) }},
	}
	batch := func(t *testing.T, value func() uint64, m int) []*he.Ciphertext {
		t.Helper()
		cts := make([]*he.Ciphertext, m)
		for i := range cts {
			pt := he.NewPlaintext(params)
			for j := range pt.Poly.Coeffs {
				pt.Poly.Coeffs[j] = value()
			}
			var err error
			if cts[i], err = enc.Encrypt(pt); err != nil {
				t.Fatal(err)
			}
		}
		return cts
	}

	geom := Geometry{Channels: 2, Height: 4, Width: 4, Window: 2}
	scales := func(op NonlinearOp) NonlinearOp {
		op.InScale, op.OutScale = 63, 256
		return op
	}
	type call struct {
		name    string
		op      NonlinearOp
		in, out int
	}
	calls := []call{
		{"refresh", NonlinearOp{Kind: OpRefresh}, 3, 3},
		{"sigmoid/simd", scales(NonlinearOp{Kind: OpSigmoid, SIMD: true}), 2, 2},
		{"pool_divide", NonlinearOp{Kind: OpPoolDivide, Divisor: 4}, 3, 3},
		{"pool_full", NonlinearOp{Kind: OpPoolFull, Geometry: geom}, 32, 8},
		{"pool_max/simd", NonlinearOp{Kind: OpPoolMax, SIMD: true, Geometry: geom}, 32, 8},
		{"pool_full/fused/coeff", scales(NonlinearOp{Kind: OpPoolFull, Act: int(nn.Square), Geometry: geom, CoeffIn: 8, CoeffOut: true}), 4, 1},
		{"pool_max/fused/coeff_in", scales(NonlinearOp{Kind: OpPoolMax, Act: int(nn.ReLU), Geometry: geom, CoeffIn: 5}), 7, 8},
		{"pool_unpack", NonlinearOp{Kind: OpPoolUnpack, Geometry: geom, Lanes: 6, Divisor: 4}, 2, 8},
		{"pool_unpack/fused/coeff_out", scales(NonlinearOp{Kind: OpPoolUnpack, Act: int(nn.Tanh), Geometry: geom, Lanes: 4, Divisor: 4, CoeffOut: true}), 2, 1},
		{"lane_pack", NonlinearOp{Kind: OpLanePack, Lanes: 2}, 6, 3},
		{"lane_demux", NonlinearOp{Kind: OpLaneDemux, Lanes: 3}, 2, 6},
	}
	for _, kind := range []nn.ActKind{nn.Sigmoid, nn.ReLU, nn.Tanh, nn.LeakyReLU, nn.Square} {
		calls = append(calls, call{"activation/" + kind.String(), scales(NonlinearOp{Kind: OpActivation, Act: int(kind)}), 3, 3})
	}
	host := &hostView{svc: s.svc, tracer: trace.NewTracer(4), bus: diag.NewBus(0, nil)}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			views := map[string]bool{}
			for _, fill := range fills {
				view, out := host.observe(t, c.op, batch(t, fill.value, c.in))
				if !strings.Contains(view, "error <nil>") || len(out) != c.out {
					t.Errorf("%s plaintexts: %d ciphertexts back, want %d; the host saw:\n%s", fill.name, len(out), c.out, view)
				}
				views[view] = true
			}
			if len(views) != 1 {
				t.Errorf("the host's view depends on the plaintexts: %d distinct views", len(views))
			}
		})
	}
}
