package ring

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// bufPool recycles the intermediate byte buffers of poly (de)serialization.
// A cipher image moves hundreds of polynomials per request; without pooling
// every receive allocates 8·n bytes per poly just to shuttle bytes between
// the reader and the coefficient slice.
var bufPool sync.Pool // *[]byte

// getBuf returns a byte slice of length n (unspecified contents) from the
// pool, growing the pooled backing array when needed.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBuf returns a buffer obtained from getBuf to the pool.
func putBuf(b []byte) {
	b = b[:cap(b)]
	bufPool.Put(&b)
}

// WritePoly serializes p as a little-endian coefficient vector preceded by a
// uint32 length — the v1 (legacy) fixed 8-bytes-per-coefficient layout.
func WritePoly(w io.Writer, p Poly) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(p.Coeffs))); err != nil {
		return fmt.Errorf("ring: write poly length: %w", err)
	}
	buf := getBuf(8 * len(p.Coeffs))
	defer putBuf(buf)
	for i, c := range p.Coeffs {
		binary.LittleEndian.PutUint64(buf[8*i:], c)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("ring: write poly coefficients: %w", err)
	}
	return nil
}

// maxPolyDegree bounds deserialized polynomial sizes to prevent hostile
// inputs from forcing huge allocations.
const maxPolyDegree = 1 << 16

// ReadPoly deserializes a polynomial written by WritePoly.
func ReadPoly(r io.Reader) (Poly, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return Poly{}, fmt.Errorf("ring: read poly length: %w", err)
	}
	if n == 0 || n > maxPolyDegree {
		return Poly{}, fmt.Errorf("ring: invalid poly length %d", n)
	}
	buf := getBuf(8 * int(n))
	defer putBuf(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Poly{}, fmt.Errorf("ring: read poly coefficients: %w", err)
	}
	p := Poly{Coeffs: make([]uint64, n)}
	for i := range p.Coeffs {
		p.Coeffs[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return p, nil
}

// CoeffBits returns the packed coefficient width for modulus q: the minimum
// number of bits that can hold every residue in [0, q).
func CoeffBits(q uint64) int {
	return bits.Len64(q - 1)
}

// packedBytes is the body size of a width-bit packed vector of n coefficients.
func packedBytes(n, width int) int {
	return (n*width + 7) / 8
}

// PackedPolySize returns the serialized size of WritePolyPacked for an
// n-coefficient polynomial at the given wire width (CoeffBits(q) − d),
// including the length prefix.
func PackedPolySize(n, width int) int {
	return 4 + packedBytes(n, width)
}

// packPad is the slack appended to packed buffers so the codec can always
// load/store aligned 64-bit windows without bounds gymnastics.
const packPad = 8

// packedWidth validates a packed codec's modulus and drop count and returns
// the wire width CoeffBits(q) − d, which always keeps at least one bit.
func packedWidth(q uint64, d int) (int, error) {
	full := CoeffBits(q)
	if q < 2 || full > 63 {
		return 0, fmt.Errorf("ring: packed modulus %d out of range [2, 2^63]", q)
	}
	if d < 0 || d >= full {
		return 0, fmt.Errorf("ring: drop %d out of range [0, %d) for a %d-bit modulus", d, full, full)
	}
	return full - d, nil
}

// WritePolyPacked serializes p, whose coefficients are residues mod q, at
// CoeffBits(q) − d bits per coefficient (little-endian bit order within the
// stream), preceded by a uint32 coefficient count. The d low bits of every
// coefficient are dropped (c >> d): ReadPolyPacked lifts each value back to
// the midpoint of its 2^d-wide interval, so the decoded residue is within
// 2^(d−1) of the original — the rounding error the noise accountant charges
// for a rounded ciphertext. d = 0 is lossless. The whole frame — prefix
// included — is packed and range-checked locally before any byte reaches
// w, so an out-of-range coefficient can never leave a half-written frame on
// a length-prefixed stream.
func WritePolyPacked(w io.Writer, p Poly, q uint64, d int) error {
	width, err := packedWidth(q, d)
	if err != nil {
		return err
	}
	n := len(p.Coeffs)
	size := packedBytes(n, width)
	buf := getBuf(4 + size + packPad)
	defer putBuf(buf)
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	body := buf[4:]
	for i, c := range p.Coeffs {
		if c >= q {
			return fmt.Errorf("ring: coefficient %d = %d out of range [0, %d)", i, c, q)
		}
		c >>= uint(d)
		bitOff := i * width
		byteOff := bitOff >> 3
		shift := uint(bitOff & 7)
		win := binary.LittleEndian.Uint64(body[byteOff:])
		binary.LittleEndian.PutUint64(body[byteOff:], win|c<<shift)
		if int(shift)+width > 64 {
			body[byteOff+8] |= byte(c >> (64 - shift))
		}
	}
	if _, err := w.Write(buf[:4+size]); err != nil {
		return fmt.Errorf("ring: write packed poly: %w", err)
	}
	return nil
}

// ReadPolyPacked deserializes a polynomial written by WritePolyPacked with
// the same q and d. Each wire value x is refused above (q−1) >> d, the
// largest a residue can shift to, and lifted to x·2^d + 2^(d−1) (x at
// d = 0), minus q once when that passes q — so every decoded coefficient is
// a residue in [0, q). Hostile lengths error before any large allocation.
func ReadPolyPacked(r io.Reader, q uint64, d int) (Poly, error) {
	width, err := packedWidth(q, d)
	if err != nil {
		return Poly{}, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return Poly{}, fmt.Errorf("ring: read packed poly length: %w", err)
	}
	if n == 0 || n > maxPolyDegree {
		return Poly{}, fmt.Errorf("ring: invalid packed poly length %d", n)
	}
	size := packedBytes(int(n), width)
	buf := getBuf(size + packPad)
	defer putBuf(buf)
	if _, err := io.ReadFull(r, buf[:size]); err != nil {
		return Poly{}, fmt.Errorf("ring: read packed poly coefficients: %w", err)
	}
	for i := size; i < size+packPad; i++ {
		buf[i] = 0
	}
	mask := uint64(1)<<uint(width) - 1
	maxX := (q - 1) >> uint(d)
	var mid uint64
	if d > 0 {
		mid = 1 << uint(d-1)
	}
	p := Poly{Coeffs: make([]uint64, n)}
	for i := range p.Coeffs {
		bitOff := i * width
		byteOff := bitOff >> 3
		shift := uint(bitOff & 7)
		v := binary.LittleEndian.Uint64(buf[byteOff:]) >> shift
		if int(shift)+width > 64 {
			v |= uint64(buf[byteOff+8]) << (64 - shift)
		}
		x := v & mask
		if x > maxX {
			return Poly{}, fmt.Errorf("ring: packed coefficient %d = %d exceeds %d for modulus %d at drop %d", i, x, maxX, q, d)
		}
		c := x<<uint(d) + mid
		if c >= q {
			c -= q
		}
		p.Coeffs[i] = c
	}
	return p, nil
}

// ValidatePoly checks that p has the ring's degree and fully reduced
// coefficients, guarding deserialized data before use.
func (r *Ring) ValidatePoly(p Poly) error {
	if len(p.Coeffs) != r.N {
		return fmt.Errorf("ring: poly degree %d, want %d", len(p.Coeffs), r.N)
	}
	for i, c := range p.Coeffs {
		if c >= r.Mod.Q {
			return fmt.Errorf("ring: coefficient %d = %d out of range [0, %d)", i, c, r.Mod.Q)
		}
	}
	return nil
}
