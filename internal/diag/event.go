// Package diag is the black-box diagnostics layer: a process-wide event
// bus that every alerting signal publishes into, an always-on 1-second
// metric flight recorder over the stats registry, and a postmortem
// capturer that turns a firing event into a self-contained tar.gz bundle
// an operator can pull off the box after the fact. The package sits above
// stats/trace/report and below the subsystems that publish into it (slo,
// core, wire), so it must not import those publishers.
package diag

import "time"

// Type classifies an event. The taxonomy mirrors the signals the serving
// stack already computes; see DESIGN §16 for the catalogue.
type Type string

const (
	// TypeSLOPage: a page-severity burn-rate window started firing.
	TypeSLOPage Type = "slo.page"
	// TypeSLOTicket: a ticket-severity burn-rate window started firing.
	TypeSLOTicket Type = "slo.ticket"
	// TypeSLOResolved: a previously firing severity stopped firing.
	TypeSLOResolved Type = "slo.resolved"
	// TypeShedSpike: the admission scheduler's shed rate jumped over the
	// monitor's threshold within one recorder tick.
	TypeShedSpike Type = "serve.shed_spike"
	// TypeWireFault: a connection-level protocol fault (unreadable frame,
	// partial reply frame, transport error).
	TypeWireFault Type = "wire.fault"
	// TypeSGXAnomaly: per-ECALL transition or paging cost departed from its
	// smoothed baseline.
	TypeSGXAnomaly Type = "sgx.anomaly"
	// TypeManual: an operator-requested capture (e.g. /debug/bundle).
	TypeManual Type = "manual"
)

// Severity orders events by operational urgency.
type Severity string

const (
	SeverityInfo Severity = "info"
	SeverityWarn Severity = "warn"
	SeverityPage Severity = "page"
)

// rank orders severities (unknown sorts lowest).
func (s Severity) rank() int {
	switch s {
	case SeverityPage:
		return 3
	case SeverityWarn:
		return 2
	case SeverityInfo:
		return 1
	}
	return 0
}

// AtLeast reports whether s is at least as urgent as min.
func (s Severity) AtLeast(min Severity) bool { return s.rank() >= min.rank() }

// Event is one diagnostic occurrence on the bus: what fired, where, how
// bad, and enough threshold context to reconstruct the judgement without
// the publisher's internal state.
type Event struct {
	// Seq is a process-wide publish sequence number, stamped by the bus.
	Seq uint64 `json:"seq"`
	// Time is when the event fired (stamped by the bus when zero).
	Time time.Time `json:"time"`
	Type Type      `json:"type"`
	// Severity defaults to warn when the publisher leaves it empty.
	Severity Severity `json:"severity"`
	// Stage names the pipeline stage or objective that fired ("request",
	// "square", "partial_frame", ...).
	Stage string `json:"stage,omitempty"`
	// TraceID links the event to a request trace when one was in scope.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Message is a one-line human rendering.
	Message string `json:"message"`
	// Value and Threshold capture the judgement: the observed reading and
	// the bound it crossed (burn rate vs factor, per-ECALL cost vs
	// baseline, shed fraction vs limit).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Attrs carries additional publisher-specific context.
	Attrs map[string]string `json:"attrs,omitempty"`
}
