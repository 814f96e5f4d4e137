package serve

import (
	"context"
	"testing"

	"hesgx/internal/nn"
	"hesgx/internal/trace"
)

// TestTraceSpanTreeMatchesTransitions runs one real inference through the
// full pipeline and checks the recorded trace end to end: the span tree is
// well-formed (unique IDs, parents resolve, spans inside the request
// window), the pipeline stages all appear, and the number of "sgx"-category
// ECALL spans equals the platform's enclave transition delta — every
// boundary crossing the cost model charged is visible in the trace.
func TestTraceSpanTreeMatchesTransitions(t *testing.T) {
	st := newStack(t, 77)
	tracer := trace.NewTracer(4)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}),
		WithTracer(tracer),
		WithoutLanes(),
	)
	defer p.Close()

	img := testImage(7)
	ci, err := st.client.EncryptImages([]*nn.Tensor{img}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}

	before := st.platform.Snapshot()
	if _, err := p.Infer(context.Background(), Request{Image: ci}); err != nil {
		t.Fatal(err)
	}
	delta := st.platform.Snapshot().Sub(before)
	if delta.OCalls != 0 {
		t.Fatalf("unexpected OCalls during inference: %d", delta.OCalls)
	}

	traces := tracer.Last(1)
	if len(traces) != 1 {
		t.Fatalf("tracer retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Finished() {
		t.Fatal("trace not finished after Infer returned")
	}
	spans := tr.Spans()

	// Structural checks: IDs unique, every non-root parent resolves to a
	// recorded span, and every span lies within the root's window.
	var root *trace.Span
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for i := range spans {
		s := &spans[i]
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span ID %d (%s)", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			if root != nil {
				t.Fatalf("two roots: %s and %s", root.Name, s.Name)
			}
			root = s
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	rootEnd := root.Start.Add(root.Dur)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("span %s: parent %d not recorded", s.Name, s.Parent)
			}
		}
		if s.Start.Before(root.Start) || s.Start.Add(s.Dur).After(rootEnd) {
			t.Errorf("span %s [%v +%v] escapes request window [%v +%v]",
				s.Name, s.Start, s.Dur, root.Start, root.Dur)
		}
	}

	// Every pipeline stage must have left at least one span.
	names := make(map[string]int, len(spans))
	for i := range spans {
		names[spans[i].Name]++
	}
	for _, want := range []string{"queue.wait", "infer.run", "layer.conv", "layer.act"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, names)
		}
	}

	// The ECALL spans account for every enclave transition of the request.
	ecallSpans := 0
	for i := range spans {
		if spans[i].Cat == "sgx" {
			ecallSpans++
		}
	}
	if uint64(ecallSpans) != delta.Transitions() {
		t.Fatalf("trace has %d ECALL spans, platform charged %d transitions", ecallSpans, delta.Transitions())
	}
}

// TestPipelineTraceCoversWallClock verifies the acceptance bound: the
// request's spans cover (essentially all of) the measured wall-clock,
// because the root span opens before scheduling and closes after the
// result is delivered.
func TestPipelineTraceCoversWallClock(t *testing.T) {
	st := newStack(t, 78)
	tracer := trace.NewTracer(4)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}),
		WithTracer(tracer),
		WithoutLanes(),
	)
	defer p.Close()

	ci, err := st.client.EncryptImages([]*nn.Tensor{testImage(9)}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(context.Background(), Request{Image: ci}); err != nil {
		t.Fatal(err)
	}
	tr := tracer.Last(1)[0]
	var root *trace.Span
	spans := tr.Spans()
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	if cover := root.Dur.Seconds() / tr.Wall().Seconds(); cover < 0.95 {
		t.Fatalf("root span covers %.1f%% of trace wall-clock, want >= 95%%", cover*100)
	}
}
