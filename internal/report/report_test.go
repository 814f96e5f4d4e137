package report

import (
	"context"
	"encoding/json"
	"testing"

	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// buildTrace assembles a synthetic two-layer inference trace: a conv layer
// with NTT counts and an act layer whose ECALL carries 25 ciphertexts.
func buildTrace(tracer *trace.Tracer) *trace.Trace {
	tr := tracer.Start("request")
	ctx := trace.With(context.Background(), tr)

	_, dec := trace.StartSpan(ctx, "wire.decode", "wire")
	dec.Arg("bytes", 4096).End()

	_, qs := trace.StartSpan(ctx, "queue.wait", "serve")
	qs.End()

	cctx, conv := trace.StartSpan(ctx, "layer.conv", "engine")
	conv.Arg("step", 0).Arg("cts_in", 64).Arg("pred_budget_bits", 20.5).
		Arg("ntt_fwd", 12).Arg("ntt_inv", 3).Arg("cts_out", 25)
	_ = cctx
	conv.End()

	actx, act := trace.StartSpan(ctx, "layer.act", "engine")
	act.Arg("step", 1).Arg("cts_in", 25).Arg("pred_budget_bits", 10.25)
	bctx, bw := trace.StartSpan(actx, "batch.wait", "serve")
	bw.Arg("shared_requests", 3)
	_, ec := trace.StartSpan(bctx, "ecall.sigmoid", "sgx")
	ec.Arg("cts", 25).Arg("transitions", 2).Arg("page_faults", 7).
		Arg("overhead_ms", 1.5).Arg("compute_ms", 0.5)
	ec.End()
	bw.End()
	act.Arg("cts_out", 25).End()

	_, enc := trace.StartSpan(ctx, "wire.encode", "wire")
	enc.Arg("bytes", 2048).End()

	tracer.Finish(tr)
	return tr
}

func TestFromTrace(t *testing.T) {
	if FromTrace(nil) != nil {
		t.Fatal("nil trace must yield nil report")
	}
	if FromTrace(trace.NewTrace(9, "open")) != nil {
		t.Fatal("unfinished trace must yield nil report")
	}

	tracer := trace.NewTracer(4)
	rep := FromTrace(buildTrace(tracer))
	if rep == nil {
		t.Fatal("nil report for finished trace")
	}
	if rep.RequestBytes != 4096 || rep.ReplyBytes != 2048 {
		t.Errorf("wire bytes = %d/%d, want 4096/2048", rep.RequestBytes, rep.ReplyBytes)
	}
	if len(rep.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(rep.Layers))
	}
	conv, act := rep.Layers[0], rep.Layers[1]
	if conv.Kind != "conv" || conv.Label != "00_conv" || conv.NTTForward != 12 || conv.NTTInverse != 3 {
		t.Errorf("conv layer mismatch: %+v", conv)
	}
	if conv.CtsCrossed != 0 || conv.Transitions != 0 {
		t.Errorf("conv layer crossed %d cts in %d transitions, want none", conv.CtsCrossed, conv.Transitions)
	}
	if act.Kind != "act" || act.Label != "01_act" {
		t.Errorf("act layer mismatch: %+v", act)
	}
	if act.Transitions != 2 || act.PageFaults != 7 || act.SharedRequests != 3 {
		t.Errorf("ecall attribution mismatch: %+v", act)
	}
	if act.CtsCrossed != 25 {
		t.Errorf("cts crossed = %d, want 25", act.CtsCrossed)
	}
	if act.PredictedBudgetBits == nil || *act.PredictedBudgetBits != 10.25 {
		t.Errorf("predicted = %v, want 10.25", act.PredictedBudgetBits)
	}
	if rep.MinPredictedBudgetBits == nil || *rep.MinPredictedBudgetBits != 10.25 {
		t.Errorf("min predicted = %v, want 10.25", rep.MinPredictedBudgetBits)
	}

	// The report must serialize as valid JSON with its documented keys.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"trace_id", "wall_ms", "layers", "min_predicted_budget_bits"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

func TestRecorder(t *testing.T) {
	reg := stats.NewRegistry()
	rec := NewRecorder(2, reg)
	tracer := trace.NewTracer(8)
	tracer.SetOnFinish(rec.Observe)

	// Traces without engine layers (health checks) are ignored.
	empty := tracer.Start("probe")
	tracer.Finish(empty)
	if got := rec.Last(0); len(got) != 0 {
		t.Fatalf("recorder retained %d reports for layer-less trace", len(got))
	}

	var ids []uint64
	for i := 0; i < 3; i++ {
		ids = append(ids, buildTrace(tracer).ID)
	}
	got := rec.Last(0)
	if len(got) != 2 {
		t.Fatalf("retained %d reports, want capacity 2", len(got))
	}
	// Most recent first; the oldest of the three was evicted.
	if got[0].TraceID != ids[2] || got[1].TraceID != ids[1] {
		t.Errorf("retained trace IDs %d,%d; want %d,%d", got[0].TraceID, got[1].TraceID, ids[2], ids[1])
	}
	if got := rec.Last(1); len(got) != 1 || got[0].TraceID != ids[2] {
		t.Errorf("Last(1) = %+v, want most recent %d", got, ids[2])
	}

	snap := reg.Snapshot()
	if snap["layer.01_act.pred_budget_bits.count"] != 3 {
		t.Errorf("pred_budget_bits count = %v, want 3", snap["layer.01_act.pred_budget_bits.count"])
	}
	if snap["layer.01_act.pred_budget_bits.min"] != 10.25 {
		t.Errorf("pred_budget_bits min = %v, want 10.25", snap["layer.01_act.pred_budget_bits.min"])
	}
	if snap["layer.00_conv.wall_ms.count"] != 3 {
		t.Errorf("conv wall count = %v, want 3", snap["layer.00_conv.wall_ms.count"])
	}

	// Nil recorder and nil registry are safe.
	var nilRec *Recorder
	nilRec.Observe(tracer.Start("x"))
	if nilRec.Last(0) != nil {
		t.Error("nil recorder Last must be nil")
	}
	NewRecorder(0, nil).Observe(buildTrace(tracer))
}
