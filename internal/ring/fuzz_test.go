package ring

import (
	"bytes"
	"testing"
)

// FuzzReadPolyPacked feeds hostile bytes to the packed-poly decoder: it must
// return an error or a poly of reduced residues, never panic, and never
// allocate beyond the bounded maxPolyDegree regardless of the claimed length
// prefix. Accepted polys must re-encode at the same drop, and decode again
// within 2^(d−1) of themselves (cyclically mod q): the rounding contract.
func FuzzReadPolyPacked(f *testing.F) {
	// Seed with well-formed packed polys at a realistic modulus, full width
	// and rounded.
	const q = uint64(1)<<46 - 27
	p := Poly{Coeffs: []uint64{0, 1, q - 1, 12345, 0, 7, 1 << 40, 3}}
	var good, rounded bytes.Buffer
	if err := WritePolyPacked(&good, p, q, 0); err != nil {
		f.Fatal(err)
	}
	if err := WritePolyPacked(&rounded, p, q, 17); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes(), q, 0)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, q, 0)      // hostile length
	f.Add([]byte{0, 0, 0, 0}, q, 0)                  // zero coeffs
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3}, uint64(2), 0) // truncated body
	f.Add(good.Bytes(), uint64(1)<<63, 0)            // wrong width for the data
	f.Add(good.Bytes(), q, 46)                       // drop leaves no bit
	f.Add(rounded.Bytes(), q, 17)
	f.Add(rounded.Bytes(), q, 0) // rounded frame read at full width
	f.Fuzz(func(t *testing.T, data []byte, q uint64, d int) {
		got, err := ReadPolyPacked(bytes.NewReader(data), q, d)
		if err != nil {
			return
		}
		if len(got.Coeffs) == 0 || len(got.Coeffs) > maxPolyDegree {
			t.Fatalf("decoder accepted out-of-bounds degree %d", len(got.Coeffs))
		}
		for i, c := range got.Coeffs {
			if c >= q {
				t.Fatalf("coeff %d = %d not reduced mod %d", i, c, q)
			}
		}
		var buf bytes.Buffer
		if err := WritePolyPacked(&buf, got, q, d); err != nil {
			t.Fatalf("re-encoding accepted poly: %v", err)
		}
		again, err := ReadPolyPacked(&buf, q, d)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		var half uint64
		if d > 0 {
			half = 1 << uint(d-1)
		}
		for i, c := range again.Coeffs {
			diff := (c + q - got.Coeffs[i]) % q
			if diff > half && q-diff > half {
				t.Fatalf("re-encode moved coeff %d from %d to %d, beyond 2^(d−1)", i, got.Coeffs[i], c)
			}
		}
	})
}
