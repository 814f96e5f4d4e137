// Package ring implements arithmetic over the quotient ring
// R_q = Z_q[x]/(x^n + 1) used by the FV homomorphic encryption scheme:
// word-size modular arithmetic with Barrett and Shoup reductions, negacyclic
// number-theoretic transforms, exact integer (non-modular) negacyclic
// convolution for the FV tensor step, and the random samplers the scheme
// requires (uniform, ternary, truncated discrete Gaussian).
package ring

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits bounds supported coefficient moduli. Keeping q below 2^58
// guarantees that centered FV tensor coefficients (bounded by n*(q/2)^2 for
// n <= 4096) fit in a signed 128-bit accumulator.
const MaxModulusBits = 58

// Modulus wraps an odd prime q < 2^58 with precomputed Barrett constants for
// fast reduction of 128-bit products.
type Modulus struct {
	Q uint64
	// brHi/brLo hold floor(2^128 / q), the Barrett constant.
	brHi uint64
	brLo uint64
}

// NewModulus validates q and precomputes reduction constants.
func NewModulus(q uint64) (Modulus, error) {
	if q < 2 {
		return Modulus{}, fmt.Errorf("ring: modulus %d too small", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return Modulus{}, fmt.Errorf("ring: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	m := Modulus{Q: q}
	// floor(2^128 / q) by long division of the limbs {1, 0, 0} base 2^64.
	h := uint64(1) % q           // remainder after the (zero) top quotient limb
	qh, r := bits.Div64(h, 0, q) // quotient limb for bits [64, 128)
	ql, _ := bits.Div64(r, 0, q) // quotient limb for bits [0, 64)
	m.brHi, m.brLo = qh, ql
	return m, nil
}

// MustModulus is NewModulus for known-good constants; it panics on error and
// is intended for package-level defaults and tests.
func MustModulus(q uint64) Modulus {
	m, err := NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Add returns a+b mod q for a, b < q.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns a-b mod q for a, b < q.
func (m Modulus) Sub(a, b uint64) uint64 {
	d := a - b
	if d > a { // borrow
		d += m.Q
	}
	return d
}

// Neg returns -a mod q for a < q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Reduce maps an arbitrary uint64 into [0, q).
func (m Modulus) Reduce(a uint64) uint64 {
	return a % m.Q
}

// Mul returns a*b mod q using Barrett reduction of the 128-bit product.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.reduce128(hi, lo)
}

// reduce128 reduces a 128-bit value {hi, lo} modulo q via Barrett.
func (m Modulus) reduce128(hi, lo uint64) uint64 {
	// Estimate quotient: qhat = floor(x * floor(2^128/q) / 2^128).
	// x = hi*2^64 + lo; br = brHi*2^64 + brLo.
	// x*br has 256 bits; we need bits [128, 192) of the product.
	p1hi, _ := bits.Mul64(lo, m.brLo)
	p2hi, p2lo := bits.Mul64(lo, m.brHi)
	p3hi, p3lo := bits.Mul64(hi, m.brLo)
	p4hi, p4lo := bits.Mul64(hi, m.brHi)

	// Sum the partial products; we want limb 2 (bits 128..191) of the total.
	// limb1 = p1hi + p2lo + p3lo (with carries into limb2)
	l1, c1 := bits.Add64(p1hi, p2lo, 0)
	l1, c2 := bits.Add64(l1, p3lo, 0)
	_ = l1
	// limb2 = p2hi + p3hi + p4lo + carries
	l2, c3 := bits.Add64(p2hi, p3hi, 0)
	l2, c4 := bits.Add64(l2, p4lo, c1)
	l2, c5 := bits.Add64(l2, c2, 0)
	_ = p4hi // limb3 not needed: quotient < 2^64 because x < q*2^64
	_ = c3
	_ = c4
	_ = c5

	qhat := l2
	// r = x - qhat*q; correct by at most two subtractions.
	qqHi, qqLo := bits.Mul64(qhat, m.Q)
	rLo, borrow := bits.Sub64(lo, qqLo, 0)
	rHi, _ := bits.Sub64(hi, qqHi, borrow)
	r := rLo
	// rHi is 0 or reflects small positive residue overflow; fold.
	for rHi != 0 || r >= m.Q {
		rLo, borrow = bits.Sub64(r, m.Q, 0)
		rHi, _ = bits.Sub64(rHi, 0, borrow)
		r = rLo
	}
	return r
}

// Pow returns a^e mod q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % m.Q
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod q (q prime), or an error
// if a ≡ 0.
func (m Modulus) Inv(a uint64) (uint64, error) {
	a %= m.Q
	if a == 0 {
		return 0, fmt.Errorf("ring: zero has no inverse mod %d", m.Q)
	}
	// Fermat: a^(q-2) mod q.
	return m.Pow(a, m.Q-2), nil
}

// Shoup precomputes floor(w * 2^64 / q) enabling the fast Shoup modular
// multiplication MulShoup(a, w, wShoup) when w is a fixed operand (NTT
// twiddle factors).
func (m Modulus) Shoup(w uint64) uint64 {
	hi, _ := bits.Div64(w%m.Q, 0, m.Q)
	return hi
}

// MulShoup returns a*w mod q given wShoup = Shoup(w). Requires w < q.
func (m Modulus) MulShoup(a, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(a, wShoup)
	r := a*w - qhat*m.Q // low 64 bits are exact
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulShoupLazy is MulShoup without the final conditional subtraction: the
// result lies in the lazy range [0, 2q). Callers that immediately feed the
// value into another reduction (or sum a small number of lazy terms below
// 2^63) skip a branch per coefficient; fold back with ReduceLazy.
func (m Modulus) MulShoupLazy(a, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(a, wShoup)
	return a*w - qhat*m.Q
}

// ReduceLazy folds a lazy value in [0, 2q) into [0, q).
func (m Modulus) ReduceLazy(a uint64) uint64 {
	if a >= m.Q {
		a -= m.Q
	}
	return a
}

// MulAdd2 returns (a*b + c*d) mod q for fully reduced operands using a
// single deferred Barrett reduction of the 128-bit sum — the lazy-reduction
// fused multiply-accumulate of the RNS tensor cross term. The sum
// 2(q-1)^2 < q*2^64 keeps the Barrett quotient within one word.
func (m Modulus) MulAdd2(a, b, c, d uint64) uint64 {
	h1, l1 := bits.Mul64(a, b)
	h2, l2 := bits.Mul64(c, d)
	lo, carry := bits.Add64(l1, l2, 0)
	hi, _ := bits.Add64(h1, h2, carry)
	return m.reduce128(hi, lo)
}

// lazyMass returns the largest weight mass Σ|wᵢ| a lazily accumulated
// weighted sum of residues may carry on top of one carried-in residue:
// (mass+1)·q ≤ 2⁶⁴ keeps the sum within one word. It is ⌊(2⁶⁴−1)/q⌋ − 1 —
// 255 for a 56-bit q, 63 at MaxModulusBits — and brHi is ⌊2⁶⁴/q⌋, which
// equals ⌊(2⁶⁴−1)/q⌋ for odd q.
func (m Modulus) lazyMass() uint64 {
	return m.brHi - 1
}

// reduceWord maps any uint64 into [0, q) with one 64-bit Barrett step: the
// quotient estimate ⌊x·⌊2⁶⁴/q⌋/2⁶⁴⌋ undershoots by at most one, so one
// conditional subtraction finishes.
func (m Modulus) reduceWord(x uint64) uint64 {
	qhat, _ := bits.Mul64(x, m.brHi)
	r := x - qhat*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// Centered maps a residue in [0, q) to its centered representative in
// (-q/2, q/2].
func (m Modulus) Centered(a uint64) int64 {
	if a > m.Q/2 {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}

// FromCentered maps a signed value with |v| < q into [0, q).
func (m Modulus) FromCentered(v int64) uint64 {
	if v < 0 {
		return uint64(v + int64(m.Q))
	}
	return uint64(v)
}
