package ring

import (
	"bytes"
	"math/bits"
	"testing"
)

func testSerializeRing(t testing.TB, n int) *Ring {
	t.Helper()
	q, err := GenerateNTTPrime(46, n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPackedPolyMatchesLegacy is the codec equivalence property: for random
// in-range polynomials, packed encode → decode yields coefficients
// bit-identical to the legacy 8-byte path, at the predicted smaller size.
func TestPackedPolyMatchesLegacy(t *testing.T) {
	r := testSerializeRing(t, 256)
	q, width := r.Mod.Q, CoeffBits(r.Mod.Q)
	s := NewSampler(r, NewSeededSource(7))
	for trial := 0; trial < 20; trial++ {
		p := r.NewPoly()
		s.Uniform(p)

		var legacy bytes.Buffer
		if err := WritePoly(&legacy, p); err != nil {
			t.Fatal(err)
		}
		var packed bytes.Buffer
		if err := WritePolyPacked(&packed, p, q, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := packed.Len(), PackedPolySize(r.N, width); got != want {
			t.Fatalf("packed size %d, PackedPolySize says %d", got, want)
		}
		if packed.Len() >= legacy.Len() {
			t.Fatalf("packed %dB not smaller than legacy %dB", packed.Len(), legacy.Len())
		}

		fromLegacy, err := ReadPoly(&legacy)
		if err != nil {
			t.Fatal(err)
		}
		fromPacked, err := ReadPolyPacked(&packed, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !fromLegacy.Equal(p) || !fromPacked.Equal(p) {
			t.Fatal("decoded polynomial differs from original")
		}
	}
}

// TestPackedPolyEdgeWidths exercises widths at both extremes, including the
// >57-bit case where a coefficient straddles a 64-bit window boundary: a
// modulus q = 2^width admits every width-bit value.
func TestPackedPolyEdgeWidths(t *testing.T) {
	for _, width := range []int{1, 7, 8, 9, 31, 33, 57, 58, 63} {
		limit := uint64(1) << uint(width)
		p := Poly{Coeffs: make([]uint64, 64)}
		state := uint64(width)
		for i := range p.Coeffs {
			state = state*6364136223846793005 + 1442695040888963407
			p.Coeffs[i] = state % limit
		}
		// Force extremes into the vector.
		p.Coeffs[0] = limit - 1
		p.Coeffs[1] = 0
		p.Coeffs[len(p.Coeffs)-1] = limit - 1

		var buf bytes.Buffer
		if err := WritePolyPacked(&buf, p, limit, 0); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		got, err := ReadPolyPacked(&buf, limit, 0)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !got.Equal(p) {
			t.Fatalf("width %d: round trip mismatch", width)
		}
	}
}

func TestPackedPolyRejectsOversizedCoefficient(t *testing.T) {
	// The oversized coefficient sits last so an eager writer would have
	// emitted the length prefix (and most of the body) before noticing.
	p := Poly{Coeffs: []uint64{1, 2, 3, 1 << 10}}
	var buf bytes.Buffer
	if err := WritePolyPacked(&buf, p, 1<<10, 0); err == nil {
		t.Fatal("coefficient wider than width accepted")
	}
	// The failure must happen before any byte reaches the stream: a partial
	// frame inside a length-prefixed framing would desync the connection.
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before range check failed", buf.Len())
	}
}

// TestPackedPolyRejectsBadWidth: a modulus whose residues need no bits or
// more than 63, and a drop that would leave no bit of a coefficient, are
// refused by both ends before any byte moves.
func TestPackedPolyRejectsBadWidth(t *testing.T) {
	p := Poly{Coeffs: []uint64{1}}
	var buf bytes.Buffer
	for _, c := range []struct {
		q uint64
		d int
	}{{0, 0}, {1, 0}, {1<<63 + 1, 0}, {^uint64(0), 0}, {1 << 10, -1}, {1 << 10, 10}, {1 << 10, 64}} {
		if err := WritePolyPacked(&buf, p, c.q, c.d); err == nil {
			t.Fatalf("q=%d d=%d accepted by writer", c.q, c.d)
		}
		if _, err := ReadPolyPacked(bytes.NewReader([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0}), c.q, c.d); err == nil {
			t.Fatalf("q=%d d=%d accepted by reader", c.q, c.d)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written by refused calls", buf.Len())
	}
}

// TestPackedPolyDropRoundsToMidpoint is the rounding contract the noise
// accountant charges: at every drop d, each decoded residue lies within
// 2^(d−1) of the original (cyclically mod q), the frame is
// PackedPolySize(n, CoeffBits(q) − d) bytes, and the extremes 0 and q−1
// survive — q−1 is the largest value the reader accepts, and its lift may
// pass q and wrap.
func TestPackedPolyDropRoundsToMidpoint(t *testing.T) {
	r := testSerializeRing(t, 256)
	q, full := r.Mod.Q, CoeffBits(r.Mod.Q)
	s := NewSampler(r, NewSeededSource(21))
	p := r.NewPoly()
	s.Uniform(p)
	p.Coeffs[0], p.Coeffs[1] = 0, q-1
	for _, d := range []int{0, 1, 5, 17, 28, full - 1} {
		var buf bytes.Buffer
		if err := WritePolyPacked(&buf, p, q, d); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if got, want := buf.Len(), PackedPolySize(r.N, full-d); got != want {
			t.Fatalf("d=%d: %d bytes, PackedPolySize says %d", d, got, want)
		}
		got, err := ReadPolyPacked(&buf, q, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		var half uint64
		if d > 0 {
			half = 1 << uint(d-1)
		}
		for i, c := range got.Coeffs {
			if c >= q {
				t.Fatalf("d=%d: coefficient %d = %d not reduced", d, i, c)
			}
			diff := r.Mod.Sub(c, p.Coeffs[i])
			if diff > half && q-diff > half {
				t.Fatalf("d=%d: coefficient %d moved from %d to %d, beyond 2^(d−1)", d, i, p.Coeffs[i], c)
			}
		}
	}
}

// TestReadPolyPackedRejectsOutOfRangeValue: a wire value above (q−1) >> d
// cannot come from a residue, so the reader refuses it instead of lifting
// it past q.
func TestReadPolyPackedRejectsOutOfRangeValue(t *testing.T) {
	q := uint64(1000) // 10 bits
	for _, d := range []int{0, 3} {
		// One coefficient whose wire value is all ones at width 10 − d.
		ones := uint16(1)<<uint(CoeffBits(q)-d) - 1
		frame := []byte{1, 0, 0, 0, byte(ones), byte(ones >> 8)}
		if _, err := ReadPolyPacked(bytes.NewReader(frame), q, d); err == nil {
			t.Fatalf("d=%d: wire value above (q−1)>>d accepted", d)
		}
	}
}

func TestReadPolyPackedRejectsHostileLength(t *testing.T) {
	// Length prefix far beyond maxPolyDegree must error without allocating.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadPolyPacked(bytes.NewReader(hostile), 1<<46, 0); err == nil {
		t.Fatal("hostile length accepted")
	}
	if _, err := ReadPolyPacked(bytes.NewReader([]byte{0, 0, 0, 0}), 1<<46, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	// Truncated body.
	if _, err := ReadPolyPacked(bytes.NewReader([]byte{4, 0, 0, 0, 1, 2}), 1<<46, 0); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// TestCoeffBits pins the width formula the wire format depends on.
func TestCoeffBits(t *testing.T) {
	for _, q := range []uint64{2, 3, 255, 256, 257, 1 << 45, (1 << 58) - 27} {
		if got, want := CoeffBits(q), bits.Len64(q-1); got != want {
			t.Fatalf("CoeffBits(%d) = %d, want %d", q, got, want)
		}
	}
}

// TestSerializeBufferReuse checks the pooled scratch path stays correct
// under interleaved encode/decode traffic (pool reuse must never leak bytes
// between polys).
func TestSerializeBufferReuse(t *testing.T) {
	r := testSerializeRing(t, 128)
	s := NewSampler(r, NewSeededSource(9))
	q := r.Mod.Q
	polys := make([]Poly, 8)
	var legacy, packed bytes.Buffer
	for i := range polys {
		polys[i] = r.NewPoly()
		s.Uniform(polys[i])
		if err := WritePoly(&legacy, polys[i]); err != nil {
			t.Fatal(err)
		}
		if err := WritePolyPacked(&packed, polys[i], q, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range polys {
		a, err := ReadPoly(&legacy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReadPolyPacked(&packed, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(polys[i]) || !b.Equal(polys[i]) {
			t.Fatalf("poly %d corrupted by buffer reuse", i)
		}
	}
}
