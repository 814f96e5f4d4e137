package diag

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderIncident writes a human-readable incident report of a bundle:
// header and trigger, the event timeline, the metric deltas around the
// trigger, and the worst flight report in the window. Missing members
// degrade to "(not captured)" lines rather than errors — a partial bundle
// still tells part of the story.
func RenderIncident(w io.Writer, b *Bundle) error {
	bw := &errWriter{w: w}

	bw.printf("== hesgx incident report ==\n")
	if !b.Manifest.Created.IsZero() {
		bw.printf("captured: %s (bundle format v%d, %d members)\n",
			b.Manifest.Created.Format("2006-01-02 15:04:05 MST"), b.Manifest.FormatVersion, len(b.Files))
	}
	if info := b.Files["buildinfo.json"]; len(info) > 0 {
		bw.printf("build: %s\n", strings.TrimSpace(compactJSON(info)))
	}

	trigger := b.Trigger()
	bw.printf("\n-- trigger --\n")
	if trigger == nil {
		bw.printf("(on-demand capture: no triggering event)\n")
	} else {
		renderEvent(bw, *trigger)
	}

	bw.printf("\n-- event timeline --\n")
	events := b.Events()
	if len(events) == 0 {
		bw.printf("(no events captured)\n")
	}
	for _, e := range events {
		renderEvent(bw, e)
	}

	bw.printf("\n-- metrics around the trigger --\n")
	renderMetrics(bw, b, trigger)

	bw.printf("\n-- worst flight report --\n")
	renderWorstReport(bw, b, trigger)

	if g := b.Files["goroutines.txt"]; len(g) > 0 {
		bw.printf("\n-- runtime --\ngoroutines: %d (full dump in goroutines.txt)\n",
			bytes.Count(g, []byte("\ngoroutine "))+1)
	}
	if h := b.Files["heap.pprof"]; len(h) > 0 {
		bw.printf("heap profile: %d bytes (heap.pprof; inspect with go tool pprof)\n", len(h))
	}
	return bw.err
}

func renderEvent(bw *errWriter, e Event) {
	bw.printf("%s  #%d %-5s %-18s", e.Time.Format("15:04:05.000"), e.Seq, e.Severity, e.Type)
	if e.Stage != "" {
		bw.printf(" [%s]", e.Stage)
	}
	bw.printf(" %s", e.Message)
	if e.Threshold != 0 {
		bw.printf(" (value %.3g, threshold %.3g)", e.Value, e.Threshold)
	}
	if e.TraceID != 0 {
		bw.printf(" trace=%d", e.TraceID)
	}
	bw.printf("\n")
}

// renderMetrics prints the samples bracketing the trigger time (all when
// there is no trigger), focusing on the busiest rate series.
func renderMetrics(bw *errWriter, b *Bundle, trigger *Event) {
	samples := b.Metrics()
	if len(samples) == 0 {
		bw.printf("(no metric window captured)\n")
		return
	}
	bw.printf("window: %d samples, %s .. %s\n", len(samples),
		samples[0].T.Format("15:04:05"), samples[len(samples)-1].T.Format("15:04:05"))

	// T0 = the sample nearest the trigger; the tail of the window otherwise.
	t0 := len(samples) - 1
	if trigger != nil {
		for i, s := range samples {
			if !s.T.Before(trigger.Time) {
				t0 = i
				break
			}
		}
	}
	lo := t0 - 5
	if lo < 0 {
		lo = 0
	}
	hi := t0 + 5
	if hi >= len(samples) {
		hi = len(samples) - 1
	}

	// Rank rate series by their peak within the excerpt so the table shows
	// what actually moved.
	peak := map[string]float64{}
	for _, s := range samples[lo : hi+1] {
		for k, v := range s.Rates {
			if v > peak[k] {
				peak[k] = v
			}
		}
	}
	keys := make([]string, 0, len(peak))
	for k := range peak {
		if peak[k] > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if peak[keys[i]] != peak[keys[j]] {
			return peak[keys[i]] > peak[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > 8 {
		keys = keys[:8]
	}
	if len(keys) == 0 {
		bw.printf("(no rate activity in the excerpt)\n")
		return
	}
	bw.printf("%-12s", "t")
	for _, k := range keys {
		bw.printf(" %20s", shorten(k, 20))
	}
	bw.printf("  (per second)\n")
	for i := lo; i <= hi; i++ {
		s := samples[i]
		mark := " "
		if i == t0 && trigger != nil {
			mark = "*"
		}
		bw.printf("%s%-11s", mark, s.T.Format("15:04:05"))
		for _, k := range keys {
			bw.printf(" %20.2f", s.Rates[k])
		}
		bw.printf("\n")
	}
	if trigger != nil {
		bw.printf("(* = sample at the trigger)\n")
	}
}

func renderWorstReport(bw *errWriter, b *Bundle, trigger *Event) {
	all := b.Reports()
	reports := all[:0]
	for _, r := range all {
		if r != nil {
			reports = append(reports, r)
		}
	}
	if len(reports) == 0 {
		bw.printf("(no flight reports captured)\n")
		return
	}
	// Worst = the trigger's own trace when bundled; otherwise the slowest
	// wall clock.
	worst := reports[0]
	matched := false
	if trigger != nil && trigger.TraceID != 0 {
		for _, r := range reports {
			if r != nil && r.TraceID == trigger.TraceID {
				worst = r
				matched = true
				bw.printf("(the trigger's own trace %d)\n", r.TraceID)
				break
			}
		}
	}
	if !matched {
		for _, r := range reports[1:] {
			if r.WallMS > worst.WallMS {
				worst = r
			}
		}
	}
	bw.printf("trace %d %q: wall %.2fms queue %.2fms", worst.TraceID, worst.Name, worst.WallMS, worst.QueueWaitMS)
	if worst.Lanes > 0 {
		bw.printf(" lanes %d", worst.Lanes)
	}
	if v := worst.MinPredictedBudgetBits; v != nil {
		bw.printf(" min_predicted_budget %.2f bits", *v)
	}
	bw.printf("\n")
	for i, l := range worst.Layers {
		bw.printf("  %-16s %8.2fms", l.Label, l.WallMS)
		if l.Transitions > 0 {
			bw.printf("  transitions %d", l.Transitions)
		}
		if l.PageFaults > 0 {
			bw.printf("  page_faults %d", l.PageFaults)
		}
		// A fused act+pool pair shares one ECALL, carried by the pool layer.
		switch {
		case l.Fused && l.Kind == "act" && i+1 < len(worst.Layers):
			bw.printf("  fused: applied inside %s's ECALL", worst.Layers[i+1].Label)
		case l.Fused && i > 0:
			bw.printf("  fused: one ECALL applies %s, then pools", worst.Layers[i-1].Label)
		}
		// A planner-owned pool crossing folds its map before the ECALL.
		if l.CoeffIn > 0 {
			bw.printf("  coeff_in %d (%d values crossed in %d cts)", l.CoeffIn, l.CtsIn, (l.CtsIn+l.CoeffIn-1)/l.CoeffIn)
		}
		bw.printf("\n")
	}
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}

// compactJSON flattens a small JSON document to one log-friendly line.
func compactJSON(data []byte) string {
	var buf bytes.Buffer
	s := string(data)
	s = strings.ReplaceAll(s, "\n", " ")
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	buf.WriteString(s)
	return buf.String()
}

// errWriter latches the first write error so render code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}
