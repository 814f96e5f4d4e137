package diag

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hesgx/internal/stats"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestCapturerTriggeredBundleEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg := stats.NewRegistry()
	bus := NewBus(32, reg)
	rec := NewRecorder(RecorderConfig{Registry: reg, Capacity: 128})
	reg.Counter("serve.jobs.submitted").Add(42)
	for i := 0; i < 70; i++ {
		rec.Tick()
	}

	c := NewCapturer(bus, rec, CaptureConfig{
		Dir:      dir,
		Debounce: time.Hour, // one capture only, however many events land
		Settle:   -1,        // capture immediately: the test's state is already in place
	})
	c.AddSource(JSONSource("extra.json", func() any { return map[string]int{"n": 7} }))
	c.AddSource(Source{Name: "broken.bin", Fn: func() ([]byte, error) {
		return nil, os.ErrPermission
	}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	// An info event must not trigger; a warn must. Publishing inside the
	// poll loop rides out the race with Run's subscription; the hour-long
	// debounce keeps the repeats from capturing twice.
	bus.Publish(Event{Type: TypeSLOResolved, Severity: SeverityInfo})
	ok := waitFor(t, 5*time.Second, func() bool {
		bus.Publish(Event{
			Type: TypeSGXAnomaly, Severity: SeverityWarn, Stage: "page_faults",
			TraceID: 0xABCD, Value: 35, Threshold: 10, Message: "paging spike",
		})
		return c.Captures() == 1
	})
	if !ok {
		t.Fatalf("captures = %d, want exactly 1 (triggered, debounced)", c.Captures())
	}
	bus.Publish(Event{Type: TypeShedSpike, Severity: SeverityWarn}) // debounced away
	// Give the debounced third event a moment to (wrongly) capture.
	time.Sleep(50 * time.Millisecond)
	if got := c.Captures(); got != 1 {
		t.Fatalf("debounce failed: %d captures", got)
	}
	if got := reg.Counter("diag.bundles_written").Value(); got != 1 {
		t.Errorf("diag.bundles_written = %d, want 1", got)
	}

	path := c.LastPath()
	if path == "" || filepath.Dir(path) != dir {
		t.Fatalf("bundle path %q not in %q", path, dir)
	}
	b, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.FormatVersion != BundleFormatVersion {
		t.Errorf("format version %d, want %d", b.Manifest.FormatVersion, BundleFormatVersion)
	}
	trig := b.Trigger()
	if trig == nil || trig.Type != TypeSGXAnomaly || trig.TraceID != 0xABCD {
		t.Fatalf("trigger = %+v, want the sgx anomaly event", trig)
	}
	if events := b.Events(); len(events) < 2 {
		t.Errorf("bundled %d events, want the recent log", len(events))
	}
	if samples := b.Metrics(); len(samples) < 60 {
		t.Errorf("bundled %d metric samples, want >= 60", len(samples))
	}
	for _, name := range []string{"goroutines.txt", "heap.pprof", "buildinfo.json", "extra.json"} {
		if len(b.Files[name]) == 0 {
			t.Errorf("bundle missing %s", name)
		}
	}
	if !bytes.Contains(b.Files["goroutines.txt"], []byte("goroutine ")) {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}
	var extra map[string]int
	if err := json.Unmarshal(b.Files["extra.json"], &extra); err != nil || extra["n"] != 7 {
		t.Errorf("extra.json = %s (%v)", b.Files["extra.json"], err)
	}
	// The failing source degrades to an .err.txt member, not a failed bundle.
	if msg := string(b.Files["broken.bin.err.txt"]); !strings.Contains(msg, "permission") {
		t.Errorf("broken source error member = %q", msg)
	}

	// The bundle renders.
	var out bytes.Buffer
	if err := RenderIncident(&out, b); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"incident report", string(TypeSGXAnomaly), "trace=43981", "goroutines:"} {
		if !strings.Contains(report, want) {
			t.Errorf("rendered report missing %q\n%s", want, report)
		}
	}
}

func TestCapturerRateLimit(t *testing.T) {
	dir := t.TempDir()
	bus := NewBus(8, nil)
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	c := NewCapturer(bus, nil, CaptureConfig{Dir: dir, Debounce: -1, MaxPerHour: 3, Now: clock})
	admitted := 0
	for i := 0; i < 10; i++ {
		if c.admit() {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d captures in one hour, want 3", admitted)
	}
	// An hour later the budget refills.
	now = now.Add(61 * time.Minute)
	if !c.admit() {
		t.Fatal("rate limit did not recover after the trailing hour")
	}
}

func TestCapturerDebounce(t *testing.T) {
	bus := NewBus(8, nil)
	now := time.Unix(1_700_000_000, 0)
	c := NewCapturer(bus, nil, CaptureConfig{
		Dir: t.TempDir(), Debounce: time.Minute, MaxPerHour: -1,
		Now: func() time.Time { return now },
	})
	if !c.admit() {
		t.Fatal("first capture refused")
	}
	now = now.Add(30 * time.Second)
	if c.admit() {
		t.Fatal("capture admitted inside the debounce window")
	}
	now = now.Add(31 * time.Second)
	if !c.admit() {
		t.Fatal("capture refused after the debounce window")
	}
}

func TestCaptureNowRequiresDir(t *testing.T) {
	c := NewCapturer(nil, nil, CaptureConfig{})
	if _, err := c.CaptureNow(nil); err == nil {
		t.Fatal("CaptureNow without a directory must error")
	}
}

func TestWriteBundleOnDemand(t *testing.T) {
	// The /debug/bundle path: no trigger, no bus, no recorder — still a
	// valid, readable bundle.
	c := NewCapturer(nil, nil, CaptureConfig{})
	var buf bytes.Buffer
	if err := c.WriteBundle(&buf, nil); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger() != nil {
		t.Error("on-demand bundle has a trigger")
	}
	if len(b.Files["buildinfo.json"]) == 0 {
		t.Error("on-demand bundle missing buildinfo.json")
	}
	var out bytes.Buffer
	if err := RenderIncident(&out, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "on-demand capture") {
		t.Error("rendered report does not mark the on-demand capture")
	}
}
