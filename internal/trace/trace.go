// Package trace is the serving stack's low-overhead request tracer. Every
// inference request gets one Trace; the stages it flows through — wire
// accept, lane flush, scheduler queue wait, per-layer engine execution,
// the ECALL itself — record Spans into it, forming a tree that decomposes
// the request's wall-clock the way the paper's §VIII figures decompose
// inference latency (HE linear time vs. enclave transition cost vs.
// in-enclave compute).
//
// Spans attach through the context: With puts a Trace into a context,
// StartSpan opens a child of the current span and returns a derived
// context, and Join fans a fresh context out over several requests'
// traces — the mechanism by which one lane-packed engine pass, and every
// ECALL in it, is attributed to each request that shared it.
//
// Everything is nil-safe: a nil *Tracer starts nil *Traces, a context
// without a trace yields a nil *SpanHandle, and all methods on nil
// receivers no-op, so instrumented code carries no conditionals.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one trace. The root span is always ID 1;
// 0 means "no parent".
type SpanID uint32

// rootID is the span ID reserved for a trace's root (request) span.
const rootID SpanID = 1

// Arg is one numeric annotation on a span (enclave transition counts,
// ciphertext counts, injected overhead, ...).
type Arg struct {
	Key string  `json:"k"`
	Val float64 `json:"v"`
}

// Span is one finished timed region of a request. The json tags define the
// wire form used when a server ships its span subtree back to the client
// inside a traced reply (see Snapshot in remote.go).
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Cat groups spans for filtering: "request", "wire", "serve",
	// "engine", "sgx", "client".
	Cat   string        `json:"cat"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Args  []Arg         `json:"args,omitempty"`
}

// Trace collects the span tree of one request. Safe for concurrent span
// recording (batched ECALLs record from the flush goroutine while the
// request goroutine records its own spans).
type Trace struct {
	ID    uint64
	Name  string
	Start time.Time

	next atomic.Uint32

	mu    sync.Mutex
	spans []Span
	end   time.Time
}

// NewTrace opens a trace whose root span starts now.
func NewTrace(id uint64, name string) *Trace {
	tr := &Trace{ID: id, Name: name, Start: time.Now()}
	tr.next.Store(uint32(rootID)) // reserve the root span ID
	return tr
}

func (t *Trace) newID() SpanID { return SpanID(t.next.Add(1)) }

func (t *Trace) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Finish closes the trace: the root span's duration becomes the request
// wall-clock. Idempotent; nil-safe.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.end.IsZero() {
		return
	}
	t.end = time.Now()
	t.spans = append(t.spans, Span{
		ID:    rootID,
		Name:  t.Name,
		Cat:   "request",
		Start: t.Start,
		Dur:   t.end.Sub(t.Start),
	})
}

// Finished reports whether Finish has run.
func (t *Trace) Finished() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.end.IsZero()
}

// Wall returns the request wall-clock (zero until Finish).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		return 0
	}
	return t.end.Sub(t.Start)
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// scope is one attachment point for new spans: a trace and the span that
// becomes their parent.
type scope struct {
	tr     *Trace
	parent SpanID
}

type ctxKey struct{}

// With returns a context carrying tr; spans started from it become
// children of tr's root span. A nil trace returns ctx unchanged.
func With(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, []scope{{tr: tr, parent: rootID}})
}

// FromContext returns the trace attached to ctx (the first one, if a Join
// attached several), or nil.
func FromContext(ctx context.Context) *Trace {
	scopes, _ := ctx.Value(ctxKey{}).([]scope)
	if len(scopes) == 0 {
		return nil
	}
	return scopes[0].tr
}

// ID returns the ID of the trace attached to ctx, or 0 — the correlation
// key log records carry so structured logs join against trace exports.
func ID(ctx context.Context) uint64 {
	if tr := FromContext(ctx); tr != nil {
		return tr.ID
	}
	return 0
}

// Join returns a context derived from base that records spans into every
// trace attached to the given contexts — how one lane-packed engine pass is
// attributed to all the requests riding in it. Each span lands in each
// trace under that trace's own current parent span. Cancellation and
// values of the joined contexts are NOT inherited; only their trace
// attachments are.
func Join(base context.Context, ctxs ...context.Context) context.Context {
	var all []scope
	seen := make(map[*Trace]bool)
	for _, c := range ctxs {
		if c == nil {
			continue
		}
		scopes, _ := c.Value(ctxKey{}).([]scope)
		for _, sc := range scopes {
			if !seen[sc.tr] {
				seen[sc.tr] = true
				all = append(all, sc)
			}
		}
	}
	if len(all) == 0 {
		return base
	}
	return context.WithValue(base, ctxKey{}, all)
}

// spanPart is one trace's share of an in-flight span (a joined span has
// one part per trace).
type spanPart struct {
	tr     *Trace
	id     SpanID
	parent SpanID
}

// SpanHandle is an open span returned by StartSpan; End records it.
// Nil-safe: all methods on a nil handle no-op.
type SpanHandle struct {
	name  string
	cat   string
	start time.Time
	parts []spanPart

	mu   sync.Mutex
	args []Arg
	done bool
}

// Arg annotates the span with a numeric value; returns the handle for
// chaining.
func (h *SpanHandle) Arg(key string, v float64) *SpanHandle {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	h.args = append(h.args, Arg{Key: key, Val: v})
	h.mu.Unlock()
	return h
}

// End closes the span and records it into every attached trace.
// Idempotent.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	h.done = true
	args := h.args
	h.mu.Unlock()
	dur := time.Since(h.start)
	for _, p := range h.parts {
		p.tr.record(Span{
			ID:     p.id,
			Parent: p.parent,
			Name:   h.name,
			Cat:    h.cat,
			Start:  h.start,
			Dur:    dur,
			Args:   args,
		})
	}
}

// StartSpan opens a span under the current span of every trace attached
// to ctx and returns a derived context under which further spans nest
// inside it. Without an attached trace it returns (ctx, nil) — and the
// nil handle's methods no-op.
func StartSpan(ctx context.Context, name, cat string) (context.Context, *SpanHandle) {
	scopes, _ := ctx.Value(ctxKey{}).([]scope)
	if len(scopes) == 0 {
		return ctx, nil
	}
	h := &SpanHandle{name: name, cat: cat, start: time.Now(), parts: make([]spanPart, len(scopes))}
	child := make([]scope, len(scopes))
	for i, sc := range scopes {
		id := sc.tr.newID()
		h.parts[i] = spanPart{tr: sc.tr, id: id, parent: sc.parent}
		child[i] = scope{tr: sc.tr, parent: id}
	}
	return context.WithValue(ctx, ctxKey{}, child), h
}

// DefaultBufferSize is the Tracer ring capacity when none is given.
const DefaultBufferSize = 64

// Tracer hands out request traces and retains the last N finished ones in
// a ring buffer — the always-on flight recorder the admin endpoint serves
// from. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	capacity int
	nextID   atomic.Uint64
	onFinish atomic.Value // of func(*Trace)

	mu   sync.Mutex
	ring []*Trace
	pos  int
	n    int
}

// NewTracer returns a tracer retaining the last capacity finished traces
// (DefaultBufferSize if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultBufferSize
	}
	return &Tracer{capacity: capacity, ring: make([]*Trace, capacity)}
}

// Start opens a new request trace. Nil-safe: a nil tracer returns a nil
// trace, which every downstream call ignores.
func (t *Tracer) Start(name string) *Trace {
	if t == nil {
		return nil
	}
	return NewTrace(t.nextID.Add(1), name)
}

// SetOnFinish installs a hook invoked synchronously (from Finish's caller)
// for every finished trace — how the flight-report recorder observes
// requests without the serving path importing it. A nil fn clears the hook.
func (t *Tracer) SetOnFinish(fn func(*Trace)) {
	if t == nil {
		return
	}
	t.onFinish.Store(fn)
}

// Finish closes tr and retains it in the ring buffer. Idempotent: a trace
// already finished (e.g. closed early so its snapshot could ride the reply,
// then hit again by a deferred safety Finish) is not re-inserted.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	if tr.Finished() {
		return
	}
	tr.Finish()
	t.mu.Lock()
	t.ring[t.pos] = tr
	t.pos = (t.pos + 1) % t.capacity
	if t.n < t.capacity {
		t.n++
	}
	t.mu.Unlock()
	if fn, _ := t.onFinish.Load().(func(*Trace)); fn != nil {
		fn(tr)
	}
}

// Last returns up to n finished traces, oldest first (n <= 0: all
// retained).
func (t *Tracer) Last(n int) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]*Trace, 0, n)
	for i := t.n - n; i < t.n; i++ {
		out = append(out, t.ring[(t.pos-t.n+i+2*t.capacity)%t.capacity])
	}
	return out
}
