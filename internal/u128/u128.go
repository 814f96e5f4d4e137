// Package u128 provides fixed-width 128-bit unsigned and signed integer
// arithmetic built on math/bits primitives.
//
// The FV (Fan–Vercauteren) homomorphic multiplication tensors two ciphertext
// polynomials over the integers before scaling by t/q and rounding. With a
// coefficient modulus q < 2^58 and ring degree n <= 4096, the centered tensor
// coefficients are bounded by n*(q/2)^2 < 2^126, so exact signed 128-bit
// accumulation suffices and math/big is never needed on the hot path.
package u128

import "math/bits"

// Uint128 is an unsigned 128-bit integer. The zero value is 0.
type Uint128 struct {
	Hi uint64
	Lo uint64
}

// Int128 is a signed 128-bit integer in sign-magnitude form: Neg reports the
// sign and Mag holds the absolute value. The zero value is 0.
//
// Sign-magnitude is chosen over two's complement because the FV rescaling
// step needs |x| for the rounded division round(t*x/q), making the magnitude
// directly useful.
type Int128 struct {
	Neg bool
	Mag Uint128
}

// FromUint64 widens v to 128 bits.
func FromUint64(v uint64) Uint128 {
	return Uint128{Lo: v}
}

// IsZero reports whether u is zero.
func (u Uint128) IsZero() bool {
	return u.Hi == 0 && u.Lo == 0
}

// Cmp compares u and v, returning -1, 0, or +1.
func (u Uint128) Cmp(v Uint128) int {
	switch {
	case u.Hi < v.Hi:
		return -1
	case u.Hi > v.Hi:
		return 1
	case u.Lo < v.Lo:
		return -1
	case u.Lo > v.Lo:
		return 1
	default:
		return 0
	}
}

// Add returns u+v, wrapping on overflow of 128 bits.
func (u Uint128) Add(v Uint128) Uint128 {
	lo, carry := bits.Add64(u.Lo, v.Lo, 0)
	hi, _ := bits.Add64(u.Hi, v.Hi, carry)
	return Uint128{Hi: hi, Lo: lo}
}

// Sub returns u-v, wrapping on underflow.
func (u Uint128) Sub(v Uint128) Uint128 {
	lo, borrow := bits.Sub64(u.Lo, v.Lo, 0)
	hi, _ := bits.Sub64(u.Hi, v.Hi, borrow)
	return Uint128{Hi: hi, Lo: lo}
}

// Mul64 returns the full 128-bit product a*b.
func Mul64(a, b uint64) Uint128 {
	hi, lo := bits.Mul64(a, b)
	return Uint128{Hi: hi, Lo: lo}
}

// IsZero reports whether i is zero.
func (i Int128) IsZero() bool {
	return i.Mag.IsZero()
}

// FromInt64 widens v to a signed 128-bit integer.
func FromInt64(v int64) Int128 {
	if v < 0 {
		// Negate via unsigned arithmetic so MinInt64 is handled.
		return Int128{Neg: true, Mag: FromUint64(-uint64(v))}
	}
	return Int128{Mag: FromUint64(uint64(v))}
}

// MulInt64 returns the signed 128-bit product a*b of two int64 values.
func MulInt64(a, b int64) Int128 {
	neg := (a < 0) != (b < 0)
	au := uint64(a)
	if a < 0 {
		au = -au
	}
	bu := uint64(b)
	if b < 0 {
		bu = -bu
	}
	m := Mul64(au, bu)
	if m.IsZero() {
		neg = false
	}
	return Int128{Neg: neg, Mag: m}
}

// Add returns i+v.
func (i Int128) Add(v Int128) Int128 {
	if i.Neg == v.Neg {
		return Int128{Neg: i.Neg, Mag: i.Mag.Add(v.Mag)}
	}
	// Opposite signs: subtract the smaller magnitude from the larger.
	switch i.Mag.Cmp(v.Mag) {
	case 0:
		return Int128{}
	case 1:
		return Int128{Neg: i.Neg, Mag: i.Mag.Sub(v.Mag)}
	default:
		return Int128{Neg: v.Neg, Mag: v.Mag.Sub(i.Mag)}
	}
}

// Sub returns i-v.
func (i Int128) Sub(v Int128) Int128 {
	return i.Add(Int128{Neg: !v.Neg || v.IsZero(), Mag: v.Mag})
}

// AddMulInt64 returns i + a*b without materializing the intermediate Int128
// separately; it is the accumulation primitive of the tensor step.
func (i Int128) AddMulInt64(a, b int64) Int128 {
	return i.Add(MulInt64(a, b))
}

// DivRound64 computes round(u/d) for a 128-bit unsigned numerator and a
// 64-bit divisor using round-half-up. It requires d > 0 and u + d/2 to fit
// in 192 bits (always true here).
func (u Uint128) DivRound64(d uint64) Uint128 {
	// Add d/2 with carry into a 192-bit value {c, hi, lo}.
	half := d / 2
	lo, carry := bits.Add64(u.Lo, half, 0)
	hi, c := bits.Add64(u.Hi, 0, carry)
	return divrem192by64(c, hi, lo, d)
}

// MulDivRound multiplies u by m (64-bit) and divides by d (64-bit) with
// round-half-up, exactly, via 192-bit intermediate arithmetic. It requires
// d > 0 and the true quotient to fit in 128 bits; quotients used by FV
// rescaling satisfy this because m = t < d = q.
func (u Uint128) MulDivRound(m, d uint64) Uint128 {
	// 192-bit product {p2, p1, p0} = u * m.
	h1, p0 := bits.Mul64(u.Lo, m)
	p2, l1 := bits.Mul64(u.Hi, m)
	p1, carry := bits.Add64(h1, l1, 0)
	p2 += carry
	// Add d/2 for rounding.
	half := d / 2
	p0, carry = bits.Add64(p0, half, 0)
	p1, carry = bits.Add64(p1, 0, carry)
	p2 += carry
	return divrem192by64(p2, p1, p0, d)
}

// divrem192by64 divides the 192-bit value {a2,a1,a0} by d, returning the low
// 128 bits of the quotient. The caller guarantees the quotient fits.
func divrem192by64(a2, a1, a0, d uint64) Uint128 {
	// Long division limb by limb. bits.Div64 requires hi < d; reduce the top
	// limb first so each step satisfies that precondition.
	q2 := a2 / d
	r := a2 % d
	q1, r := bits.Div64(r, a1, d)
	q0, _ := bits.Div64(r, a0, d)
	if q2 != 0 {
		// Quotient exceeds 128 bits; saturate. FV parameter validation keeps
		// this unreachable, but do not silently wrap.
		return Uint128{Hi: ^uint64(0), Lo: ^uint64(0)}
	}
	return Uint128{Hi: q1, Lo: q0}
}

// Mod64 returns u mod d for d > 0.
func (u Uint128) Mod64(d uint64) uint64 {
	r := u.Hi % d
	_, r = bits.Div64(r, u.Lo, d)
	return r
}

// ScaleRoundMod computes round(i * m / d) mod q for a signed 128-bit value,
// mapping negative results into [0, q). This is the per-coefficient FV
// rescaling primitive: i is a centered tensor coefficient, m = t, d = q = q.
func (i Int128) ScaleRoundMod(m, d, q uint64) uint64 {
	s := i.Mag.MulDivRound(m, d)
	r := s.Mod64(q)
	if i.Neg && r != 0 {
		return q - r
	}
	if i.Neg {
		return 0
	}
	return r
}
