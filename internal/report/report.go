// Package report turns finished request traces into per-layer "flight
// reports": for every inference, how long each layer took, what it cost in
// NTTs, enclave transitions and EPC paging, and — the paper's central
// resource — how much invariant-noise budget the static accountant predicted
// the ciphertexts would have left (§IV-E). Nothing here is measured on
// decrypted data: only the key holder may measure a budget, and a host that
// could watch one would learn the secret key. The Recorder observes traces as
// the Tracer finishes them, retains the last N reports for the admin endpoint's
// /inference/last, and folds per-layer series into the metrics registry.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hesgx/internal/trace"
)

// Layer is one engine step of a request, with everything attributed to it.
type Layer struct {
	Step  int    `json:"step"`
	Kind  string `json:"kind"`
	Label string `json:"label"`

	WallMS float64 `json:"wall_ms"`
	CtsIn  int     `json:"cts_in"`
	CtsOut int     `json:"cts_out"`

	// NTT transform counts (linear layers only; see the engine's caveat on
	// concurrent attribution).
	NTTForward int `json:"ntt_forward,omitempty"`
	NTTInverse int `json:"ntt_inverse,omitempty"`

	// RNS modulus-chain kernel activity: per-limb pointwise multiply
	// passes and CRT basis conversions this layer triggered (same
	// approximate attribution as the NTT counters). Zero on layers that
	// never tensor and in hybrid mode, where squares refresh in-enclave.
	LimbMuls   int `json:"limb_muls,omitempty"`
	CRTExtends int `json:"crt_extends,omitempty"`

	// Rotation-keyed packed execution (slot-packed images only): Galois
	// key-switches this layer performed and how many of its rotations rode
	// a shared hoisted decomposition instead of paying a full key-switch
	// each. Zero on scalar-layout layers.
	KeySwitchOps     int `json:"keyswitch_ops,omitempty"`
	HoistedRotations int `json:"hoisted_rotations,omitempty"`
	// CoeffTail is set on a pool layer and the FC behind it when the request
	// ran the coefficient-packed tail (the pool's ECALL emitted one
	// ciphertext, the FC multiplied it by whole-row operands); false there
	// means the pool emitted one scalar ciphertext per value.
	CoeffTail bool `json:"coeff_tail,omitempty"`
	// CoeffIn is set on a scalar-layout pool layer whose whole-map crossing
	// the planner owns: how many map values shared each ciphertext entering
	// its ECALL, 1 for the per-value batch (a lane request, or no budget for
	// more). CtsIn is then the map already folded, when the conv in front
	// landed it coefficient-packed, or one ciphertext per value the layer
	// folds itself; either way CtsCrossed counts the folded ciphertexts.
	CoeffIn int `json:"coeff_in,omitempty"`
	// Fused marks the two halves of an activation+pool pair the planner
	// merged into one enclave stage. The act layer issued no ECALL (no
	// transitions, nothing crossed, ~0 ms); the pool layer behind it
	// carries the stage's one ECALL, which applied the activation before
	// pooling, and both predictions are the budget entering that ECALL.
	Fused bool `json:"fused,omitempty"`

	// Simulated SGX costs summed over the ECALLs this layer triggered.
	Transitions     int     `json:"transitions,omitempty"`
	PageFaults      int     `json:"page_faults,omitempty"`
	ECallOverheadMS float64 `json:"ecall_overhead_ms,omitempty"`
	ECallComputeMS  float64 `json:"ecall_compute_ms,omitempty"`

	// CtsCrossed counts the ciphertexts this layer's ECALLs carried into
	// the enclave (0: the layer never crossed).
	CtsCrossed int `json:"cts_crossed,omitempty"`

	// PredictedBudgetBits is the static noise accountant's conservative
	// bound: for linear layers the budget of the outputs, for enclave
	// layers the budget entering the refresh.
	PredictedBudgetBits *float64 `json:"predicted_budget_bits,omitempty"`
}

// LaneStage summarizes the SGX costs of one enclave repack stage of a
// slot-batched request (lane_pack or lane_demux). Shared by every request in
// the packed pass, so the costs are per-pass, not per-request.
type LaneStage struct {
	Transitions     int     `json:"transitions,omitempty"`
	PageFaults      int     `json:"page_faults,omitempty"`
	ECallOverheadMS float64 `json:"ecall_overhead_ms,omitempty"`
	ECallComputeMS  float64 `json:"ecall_compute_ms,omitempty"`
}

// FlightReport is the per-request attribution document served at
// /inference/last.
type FlightReport struct {
	TraceID uint64    `json:"trace_id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	WallMS  float64   `json:"wall_ms"`

	QueueWaitMS  float64 `json:"queue_wait_ms,omitempty"`
	RequestBytes int     `json:"request_bytes,omitempty"`
	ReplyBytes   int     `json:"reply_bytes,omitempty"`

	// Lane scheduling attribution (slot-batched serving mode). LaneWaitMS is
	// the time this request sat in the lane packer's bucket waiting for
	// company; Lane is its slot index within the shared pass (nil when the
	// request ran scalar) and Lanes the pass occupancy. LanePack / LaneDemux
	// attribute the enclave repack stages that bracket the shared engine
	// pass.
	LaneWaitMS float64    `json:"lane_wait_ms,omitempty"`
	Lane       *int       `json:"lane,omitempty"`
	Lanes      int        `json:"lanes,omitempty"`
	LanePack   *LaneStage `json:"lane_pack,omitempty"`
	LaneDemux  *LaneStage `json:"lane_demux,omitempty"`

	Layers []Layer `json:"layers"`

	// MinPredictedBudgetBits is the tightest spot of the whole pipeline —
	// the headroom number an operator watches.
	MinPredictedBudgetBits *float64 `json:"min_predicted_budget_bits,omitempty"`
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

func argVal(s trace.Span, key string) (float64, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// FromTrace assembles the flight report of a finished trace, attributing
// ECALL and batch spans to their enclosing engine layer by walking span
// parentage. Returns nil for a nil or unfinished trace.
func FromTrace(tr *trace.Trace) *FlightReport {
	if tr == nil || !tr.Finished() {
		return nil
	}
	spans := tr.Spans()
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// layerOf climbs the parent chain to the enclosing engine layer span.
	layerOf := func(s trace.Span) (trace.SpanID, bool) {
		for depth := 0; depth < 64; depth++ {
			p, ok := byID[s.Parent]
			if !ok {
				return 0, false
			}
			if p.Cat == "engine" && strings.HasPrefix(p.Name, "layer.") {
				return p.ID, true
			}
			s = p
		}
		return 0, false
	}

	rep := &FlightReport{TraceID: tr.ID, Name: tr.Name, Start: tr.Start, WallMS: durMS(tr.Wall())}
	layers := make(map[trace.SpanID]*Layer)
	for _, s := range spans {
		switch {
		case s.Cat == "engine" && strings.HasPrefix(s.Name, "layer."):
			l := &Layer{Kind: strings.TrimPrefix(s.Name, "layer."), WallMS: durMS(s.Dur)}
			if v, ok := argVal(s, "step"); ok {
				l.Step = int(v)
			}
			l.Label = fmt.Sprintf("%02d_%s", l.Step, l.Kind)
			if v, ok := argVal(s, "cts_in"); ok {
				l.CtsIn = int(v)
			}
			if v, ok := argVal(s, "cts_out"); ok {
				l.CtsOut = int(v)
			}
			if v, ok := argVal(s, "ntt_fwd"); ok {
				l.NTTForward = int(v)
			}
			if v, ok := argVal(s, "ntt_inv"); ok {
				l.NTTInverse = int(v)
			}
			if v, ok := argVal(s, "limb_muls"); ok {
				l.LimbMuls = int(v)
			}
			if v, ok := argVal(s, "crt_extends"); ok {
				l.CRTExtends = int(v)
			}
			if v, ok := argVal(s, "keyswitch_ops"); ok {
				l.KeySwitchOps = int(v)
			}
			if v, ok := argVal(s, "hoisted_rotations"); ok {
				l.HoistedRotations = int(v)
			}
			if v, ok := argVal(s, "coeff_tail"); ok {
				l.CoeffTail = v != 0
			}
			if v, ok := argVal(s, "coeff_in"); ok {
				l.CoeffIn = int(v)
			}
			if v, ok := argVal(s, "fused"); ok {
				l.Fused = v != 0
			}
			if v, ok := argVal(s, "pred_budget_bits"); ok {
				p := v
				l.PredictedBudgetBits = &p
			}
			layers[s.ID] = l
		case s.Cat == "serve" && s.Name == "queue.wait":
			rep.QueueWaitMS += durMS(s.Dur)
		case s.Cat == "serve" && s.Name == "lane.wait":
			rep.LaneWaitMS += durMS(s.Dur)
			if v, ok := argVal(s, "lane"); ok {
				lane := int(v)
				rep.Lane = &lane
			}
			if v, ok := argVal(s, "lanes"); ok {
				rep.Lanes = int(v)
			}
		case s.Cat == "serve" && (s.Name == "lane.flush" || s.Name == "lane.batch"):
			if v, ok := argVal(s, "lanes"); ok && rep.Lanes == 0 {
				rep.Lanes = int(v)
			}
		case s.Cat == "wire" && s.Name == "wire.decode":
			if v, ok := argVal(s, "bytes"); ok {
				rep.RequestBytes += int(v)
			}
		case s.Cat == "wire" && s.Name == "wire.encode":
			if v, ok := argVal(s, "bytes"); ok {
				rep.ReplyBytes += int(v)
			}
		}
	}
	// Second pass: fold ECALL spans into their layers. Lane
	// repack ECALLs run outside any engine layer (they bracket the whole
	// packed pass), so they fold into the report's LanePack/LaneDemux stages
	// instead of climbing to a layer span.
	for _, s := range spans {
		switch {
		case s.Cat == "sgx" && s.Name == "ecall.lane_pack":
			rep.LanePack = foldLaneStage(rep.LanePack, s)
		case s.Cat == "sgx" && s.Name == "ecall.lane_demux":
			rep.LaneDemux = foldLaneStage(rep.LaneDemux, s)
		case s.Cat == "sgx" && strings.HasPrefix(s.Name, "ecall."):
			id, ok := layerOf(s)
			if !ok {
				continue
			}
			l := layers[id]
			if v, ok := argVal(s, "transitions"); ok {
				l.Transitions += int(v)
			}
			if v, ok := argVal(s, "page_faults"); ok {
				l.PageFaults += int(v)
			}
			if v, ok := argVal(s, "overhead_ms"); ok {
				l.ECallOverheadMS += v
			}
			if v, ok := argVal(s, "compute_ms"); ok {
				l.ECallComputeMS += v
			}
			if v, ok := argVal(s, "cts"); ok {
				l.CtsCrossed += int(v)
			}
		}
	}

	rep.Layers = make([]Layer, 0, len(layers))
	for _, l := range layers {
		rep.Layers = append(rep.Layers, *l)
	}
	sort.Slice(rep.Layers, func(i, j int) bool { return rep.Layers[i].Step < rep.Layers[j].Step })
	for i := range rep.Layers {
		l := &rep.Layers[i]
		if p := l.PredictedBudgetBits; p != nil {
			if rep.MinPredictedBudgetBits == nil || *p < *rep.MinPredictedBudgetBits {
				v := *p
				rep.MinPredictedBudgetBits = &v
			}
		}
	}
	return rep
}

// foldLaneStage accumulates one lane repack ECALL span into a stage
// summary, creating it on first sight.
func foldLaneStage(st *LaneStage, s trace.Span) *LaneStage {
	if st == nil {
		st = &LaneStage{}
	}
	if v, ok := argVal(s, "transitions"); ok {
		st.Transitions += int(v)
	}
	if v, ok := argVal(s, "page_faults"); ok {
		st.PageFaults += int(v)
	}
	if v, ok := argVal(s, "overhead_ms"); ok {
		st.ECallOverheadMS += v
	}
	if v, ok := argVal(s, "compute_ms"); ok {
		st.ECallComputeMS += v
	}
	return st
}
