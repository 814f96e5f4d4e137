package diag

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"
	"time"
)

// makeBundle builds a tar.gz from name→content pairs, for adversarial
// inputs the Capturer would never write.
func makeBundle(t testing.TB, members [][2]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, m := range members {
		if err := tw.WriteHeader(&tar.Header{
			Name: m[0], Mode: 0o644, Size: int64(len(m[1])), ModTime: time.Unix(0, 0),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(m[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadBundleRejectsEscapingPaths(t *testing.T) {
	for _, name := range []string{"../evil", "/abs", "a/../../b", ".."} {
		raw := makeBundle(t, [][2]string{{name, "x"}})
		if _, err := ReadBundle(bytes.NewReader(raw)); err == nil {
			t.Errorf("member %q accepted", name)
		}
	}
	// Subdirectory members that stay inside the root are fine.
	raw := makeBundle(t, [][2]string{{"sub/ok.txt", "x"}})
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if string(b.Files["sub/ok.txt"]) != "x" {
		t.Error("nested member lost")
	}
}

func TestReadBundleRejectsDuplicates(t *testing.T) {
	raw := makeBundle(t, [][2]string{{"a.txt", "1"}, {"./a.txt", "2"}})
	if _, err := ReadBundle(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate members accepted: %v", err)
	}
}

func TestReadBundleRejectsTooManyMembers(t *testing.T) {
	members := make([][2]string, MaxBundleFiles+1)
	for i := range members {
		members[i] = [2]string{fmt.Sprintf("f%d", i), "x"}
	}
	raw := makeBundle(t, members)
	if _, err := ReadBundle(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized member count accepted")
	}
}

func TestReadBundleRejectsOversizedHeader(t *testing.T) {
	// A header claiming a huge size must be rejected before allocation;
	// the stream need not actually carry the bytes.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	if err := tw.WriteHeader(&tar.Header{Name: "big", Mode: 0o644, Size: MaxBundleFileBytes + 1}); err != nil {
		t.Fatal(err)
	}
	// Close without writing the body: flush what we have.
	gz.Close()
	if _, err := ReadBundle(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("member with an oversized size header accepted")
	}
}

func TestReadBundleRejectsNonRegularMembers(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	if err := tw.WriteHeader(&tar.Header{
		Name: "link", Typeflag: tar.TypeSymlink, Linkname: "/etc/passwd",
	}); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	gz.Close()
	if _, err := ReadBundle(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("symlink member accepted")
	}
}

func TestReadBundleRejectsFutureFormat(t *testing.T) {
	man := fmt.Sprintf(`{"format_version": %d, "files": []}`, BundleFormatVersion+1)
	raw := makeBundle(t, [][2]string{{"manifest.json", man}})
	if _, err := ReadBundle(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future format accepted: %v", err)
	}
}

func TestReadBundleToleratesMissingManifest(t *testing.T) {
	raw := makeBundle(t, [][2]string{{"events.json", "[]"}})
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.FormatVersion != 0 {
		t.Error("missing manifest fabricated a version")
	}
	var out bytes.Buffer
	if err := RenderIncident(&out, b); err != nil {
		t.Fatalf("partial bundle must still render: %v", err)
	}
}

func TestReadBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte("not a gzip stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzReadBundle feeds arbitrary bytes through the bounded decoder: it
// must never panic or allocate past its caps, and anything it does accept
// must also survive rendering.
func FuzzReadBundle(f *testing.F) {
	f.Add([]byte("plainly not a bundle"))
	f.Add(makeBundle(f, [][2]string{
		{"manifest.json", `{"format_version":1,"created":"2026-01-02T03:04:05Z","files":["events.json"]}`},
		{"events.json", `[{"seq":1,"type":"manual","severity":"warn","msg":"x"}]`},
		{"metrics.json", `[{"t":"2026-01-02T03:04:05Z","dt_seconds":1,"rates":{"a":2}}]`},
	}))
	f.Add(makeBundle(f, [][2]string{{"event.json", `{"type":"slo.page","trace_id":7}`}}))
	f.Add(makeBundle(f, [][2]string{{"../escape", "x"}}))
	// A truncated valid bundle exercises the tar/gzip error paths.
	whole := makeBundle(f, [][2]string{{"goroutines.txt", strings.Repeat("goroutine 1\n", 100)}})
	f.Add(whole[:len(whole)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		var total int
		for _, content := range b.Files {
			total += len(content)
		}
		if total > MaxBundleBytes {
			t.Fatalf("decoded %d bytes past the bundle cap", total)
		}
		if len(b.Files) > MaxBundleFiles {
			t.Fatalf("decoded %d members past the member cap", len(b.Files))
		}
		var out bytes.Buffer
		if err := RenderIncident(&out, b); err != nil {
			t.Fatalf("accepted bundle failed to render: %v", err)
		}
	})
}

// A fused activation+pool pair shares one ECALL: the incident report says so
// on both lines instead of showing an activation that apparently did nothing
// next to a pool that apparently did everything.
func TestRenderIncidentFusedPair(t *testing.T) {
	reports := `[{"trace_id": 7, "name": "request", "wall_ms": 2500, "layers": [
		{"step": 0, "kind": "conv", "label": "00_conv", "wall_ms": 400},
		{"step": 1, "kind": "act", "label": "01_act", "wall_ms": 0.01, "fused": true},
		{"step": 2, "kind": "pool", "label": "02_pool", "wall_ms": 2000, "fused": true,
		 "cts_in": 3456, "coeff_in": 650, "transitions": 2, "page_faults": 45379}]}]`
	b, err := ReadBundle(bytes.NewReader(makeBundle(t, [][2]string{{"reports.json", reports}})))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RenderIncident(&out, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fused: applied inside 02_pool's ECALL",
		"page_faults 45379  fused: one ECALL applies 01_act, then pools  coeff_in 650 (3456 values crossed in 6 cts)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("incident report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "fused:") != 2 {
		t.Errorf("unfused layers marked fused:\n%s", out.String())
	}
}

// Without a trigger trace to follow, the incident report shows the slowest
// captured request.
func TestRenderIncidentPicksSlowestReport(t *testing.T) {
	reports := `[{"trace_id": 1, "name": "request", "wall_ms": 40, "layers": [{"step": 0, "kind": "conv", "label": "00_conv", "wall_ms": 40}]},
		{"trace_id": 2, "name": "request", "wall_ms": 900, "layers": [{"step": 0, "kind": "conv", "label": "00_conv", "wall_ms": 900}]},
		{"trace_id": 3, "name": "request", "wall_ms": 60, "layers": [{"step": 0, "kind": "conv", "label": "00_conv", "wall_ms": 60}]}]`
	b, err := ReadBundle(bytes.NewReader(makeBundle(t, [][2]string{{"reports.json", reports}})))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RenderIncident(&out, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `trace 2 "request": wall 900.00ms`) {
		t.Errorf("incident report does not show the slowest request:\n%s", out.String())
	}
}
