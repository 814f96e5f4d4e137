package ring

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hesgx/internal/u128"
)

// Ring bundles a power-of-two degree n, a coefficient modulus, and the NTT
// tables for R_q = Z_q[x]/(x^n + 1). Its arithmetic tables are immutable
// after construction; the scratch pools and transform counters it carries
// are internally synchronized, so a Ring is safe for concurrent use.
type Ring struct {
	N   int
	Mod Modulus
	ntt *NTT

	// scratch pools recycle the temporaries of the multiply hot path so
	// steady-state ring arithmetic allocates (almost) nothing.
	polyPool sync.Pool // *[]uint64 of length N
	i64Pool  sync.Pool // *[]int64 of length N

	// transform and pool counters, exposed for per-layer NTT accounting
	// (internal/stats surfaces them on /metrics).
	nttForward atomic.Uint64
	nttInverse atomic.Uint64
	polyMiss   atomic.Uint64
	i64Miss    atomic.Uint64
}

// NewRing constructs the ring of degree n modulo q. q must be an NTT-friendly
// prime (q ≡ 1 mod 2n) below 2^58.
func NewRing(n int, q uint64) (*Ring, error) {
	mod, err := NewModulus(q)
	if err != nil {
		return nil, err
	}
	if !IsPrime(q) {
		return nil, fmt.Errorf("ring: modulus %d is not prime", q)
	}
	ntt, err := NewNTT(mod, n)
	if err != nil {
		return nil, err
	}
	r := &Ring{N: n, Mod: mod, ntt: ntt}
	r.polyPool.New = func() any {
		r.polyMiss.Add(1)
		s := make([]uint64, n)
		return &s
	}
	r.i64Pool.New = func() any {
		r.i64Miss.Add(1)
		s := make([]int64, n)
		return &s
	}
	return r, nil
}

// GetPoly returns a scratch polynomial from the ring's pool. Its contents
// are unspecified — callers must overwrite every coefficient (or call
// Poly.Zero) before reading. Return it with PutPoly when done.
func (r *Ring) GetPoly() Poly {
	return Poly{Coeffs: *r.polyPool.Get().(*[]uint64)}
}

// PutPoly returns a polynomial obtained from GetPoly to the pool. Polys of
// the wrong degree are dropped rather than poisoning the pool.
func (r *Ring) PutPoly(p Poly) {
	if len(p.Coeffs) != r.N {
		return
	}
	c := p.Coeffs
	r.polyPool.Put(&c)
}

// GetCentered returns a pooled scratch slice for centered representations.
// Contents are unspecified; return it with PutCentered.
func (r *Ring) GetCentered() []int64 {
	return *r.i64Pool.Get().(*[]int64)
}

// PutCentered returns a scratch slice obtained from GetCentered to the pool.
func (r *Ring) PutCentered(v []int64) {
	if len(v) != r.N {
		return
	}
	r.i64Pool.Put(&v)
}

// NTTCounts returns the cumulative number of forward and inverse transforms
// this ring has executed — the denominator of the "NTTs per inference"
// metric the engine reports.
func (r *Ring) NTTCounts() (forward, inverse uint64) {
	return r.nttForward.Load(), r.nttInverse.Load()
}

// PoolMisses returns how many scratch allocations fell through the poly and
// centered pools (steady-state hot-path traffic should keep both flat).
func (r *Ring) PoolMisses() (poly, centered uint64) {
	return r.polyMiss.Load(), r.i64Miss.Load()
}

// Poly is a polynomial of degree < n with coefficients in [0, q), stored
// densely. Whether the values are in coefficient or NTT domain is tracked by
// the caller (the he package keeps ciphertexts in coefficient domain at rest).
type Poly struct {
	Coeffs []uint64
}

// NewPoly allocates a zero polynomial for the ring.
func (r *Ring) NewPoly() Poly {
	return Poly{Coeffs: make([]uint64, r.N)}
}

// Copy returns a deep copy of p.
func (p Poly) Copy() Poly {
	c := make([]uint64, len(p.Coeffs))
	copy(c, p.Coeffs)
	return Poly{Coeffs: c}
}

// CopyTo copies p's coefficients into dst, which must have the same length.
func (p Poly) CopyTo(dst Poly) {
	copy(dst.Coeffs, p.Coeffs)
}

// Equal reports whether p and q have identical coefficients.
func (p Poly) Equal(q Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i, c := range p.Coeffs {
		if c != q.Coeffs[i] {
			return false
		}
	}
	return true
}

// Zero sets every coefficient to zero.
func (p Poly) Zero() {
	for i := range p.Coeffs {
		p.Coeffs[i] = 0
	}
}

// IsZero reports whether all coefficients are zero.
func (p Poly) IsZero() bool {
	for _, c := range p.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// Add sets out = a + b.
func (r *Ring) Add(a, b, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Add(a.Coeffs[i], b.Coeffs[i])
	}
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Sub(a.Coeffs[i], b.Coeffs[i])
	}
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Neg(a.Coeffs[i])
	}
}

// MulScalar sets out = c * a.
func (r *Ring) MulScalar(a Poly, c uint64, out Poly) {
	mod := r.Mod
	c %= mod.Q
	cs := mod.Shoup(c)
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.MulShoup(a.Coeffs[i], c, cs)
	}
}

// MulScalarAdd sets out += c * a, the fused multiply-accumulate of the
// homomorphic convolution inner loop (no intermediate allocation).
func (r *Ring) MulScalarAdd(a Poly, c uint64, out Poly) {
	mod := r.Mod
	c %= mod.Q
	cs := mod.Shoup(c)
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Add(out.Coeffs[i], mod.MulShoup(a.Coeffs[i], c, cs))
	}
}

// WeightedSumInto sets out += Σ ws[i]·as[i] mod q, the weighted sum of every
// plaintext-weight linear layer. Weights are signed (the evaluator passes
// them centred mod t); out must be fully reduced on entry and is on return.
//
// Terms accumulate unreduced in 64 bits, split into runs whose weight mass
// Σ|w| stays within lazyMass. A run starts each coefficient at its carried-in
// residue plus (Σ_{w<0}|w|)·q: that offset cancels the two's-complement wrap
// of the negative products exactly, so the run's true value lies in
// [0, (mass+1)·q) ⊂ [0, 2⁶⁴) and one Barrett step per coefficient at the end
// of the run yields the same residue a per-term MulScalarAdd chain does. The
// inner loop consumes four terms per pass, so one accumulator load and store
// serves four products. A weight with |w| > lazyMass alone is reduced mod q
// and Shoup-multiplied into the reduced accumulator.
func (r *Ring) WeightedSumInto(out Poly, as []Poly, ws []int64) {
	mod := r.Mod
	limit := mod.lazyMass()
	acc := out.Coeffs
	for s := 0; s < len(ws); {
		if m := absInt64(ws[s]); m > limit {
			c := m % mod.Q
			if ws[s] < 0 {
				c = mod.Neg(c)
			}
			r.MulScalarAdd(as[s], c, out)
			s++
			continue
		}
		e, mass, neg := s, uint64(0), uint64(0)
		for ; e < len(ws); e++ {
			m := absInt64(ws[e])
			if mass+m > limit {
				break
			}
			mass += m
			if ws[e] < 0 {
				neg += m
			}
		}
		off := neg * mod.Q
		i := s
		for ; i+4 <= e; i += 4 {
			w0, w1, w2, w3 := uint64(ws[i]), uint64(ws[i+1]), uint64(ws[i+2]), uint64(ws[i+3])
			a0 := as[i].Coeffs[:len(acc)]
			a1 := as[i+1].Coeffs[:len(acc)]
			a2 := as[i+2].Coeffs[:len(acc)]
			a3 := as[i+3].Coeffs[:len(acc)]
			for j := range acc {
				acc[j] += off + w0*a0[j] + w1*a1[j] + w2*a2[j] + w3*a3[j]
			}
			off = 0
		}
		for ; i < e; i++ {
			w0, a0 := uint64(ws[i]), as[i].Coeffs[:len(acc)]
			for j := range acc {
				acc[j] += off + w0*a0[j]
			}
			off = 0
		}
		for j, x := range acc {
			acc[j] = mod.reduceWord(x)
		}
		s = e
	}
}

// absInt64 returns |w| as a uint64, exact for math.MinInt64 too.
func absInt64(w int64) uint64 {
	if w < 0 {
		return -uint64(w)
	}
	return uint64(w)
}

// MulMonomialAdd sets out += X^k·a for 0 ≤ k < n in coefficient form: a
// negacyclic shift, so coefficient j of a lands on j+k, and wraps past n with
// its sign flipped (X^n = −1). No multiplication and no transform.
func (r *Ring) MulMonomialAdd(a Poly, k int, out Poly) {
	mod := r.Mod
	split := len(a.Coeffs) - k
	hi := out.Coeffs[k:]
	for j, v := range a.Coeffs[:split] {
		hi[j] = mod.Add(hi[j], v)
	}
	lo := out.Coeffs[:k]
	for j, v := range a.Coeffs[split:] {
		lo[j] = mod.Sub(lo[j], v)
	}
}

// NTT transforms a into the evaluation domain in place.
func (r *Ring) NTT(a Poly) {
	r.nttForward.Add(1)
	r.ntt.Forward(a.Coeffs)
}

// INTT transforms a back to the coefficient domain in place.
func (r *Ring) INTT(a Poly) {
	r.nttInverse.Add(1)
	r.ntt.Inverse(a.Coeffs)
}

// INTTScaled transforms a back to the coefficient domain and multiplies it
// by the scalar s in the same pass — the s/n normalization rides the 1/n
// scaling every inverse transform already performs, so the product costs
// nothing over a plain INTT.
func (r *Ring) INTTScaled(a Poly, s uint64) {
	r.nttInverse.Add(1)
	r.ntt.InverseScaled(a.Coeffs, s)
}

// MulCoeffs sets out = a ⊙ b, the pointwise product of NTT-domain values.
func (r *Ring) MulCoeffs(a, b, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Mul(a.Coeffs[i], b.Coeffs[i])
	}
}

// MulCoeffsAdd sets out += a ⊙ b, fusing the pointwise product with the
// accumulation so evaluation-form sums never materialize the product.
func (r *Ring) MulCoeffsAdd(a, b, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Add(out.Coeffs[i], mod.Mul(a.Coeffs[i], b.Coeffs[i]))
	}
}

// MulCoeffsPairAdd sets out = a ⊙ b + c ⊙ d in one pass with one deferred
// Barrett reduction per coefficient (Modulus.MulAdd2) — the fused
// multiply-accumulate kernel of the RNS multiplier's cross term
// t·(c0⊙d1 + c1⊙d0), which otherwise pays two reductions and an add.
func (r *Ring) MulCoeffsPairAdd(a, b, c, d, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.MulAdd2(a.Coeffs[i], b.Coeffs[i], c.Coeffs[i], d.Coeffs[i])
	}
}

// ShoupPrecompute returns the Shoup companion table of a, enabling
// MulCoeffsShoup* against a as the fixed operand. Every a.Coeffs[i] must be
// fully reduced (< q).
func (r *Ring) ShoupPrecompute(a Poly) []uint64 {
	mod := r.Mod
	out := make([]uint64, len(a.Coeffs))
	for i, c := range a.Coeffs {
		out[i] = mod.Shoup(c)
	}
	return out
}

// MulCoeffsShoup sets out = a ⊙ b where bShoup = ShoupPrecompute(b).
func (r *Ring) MulCoeffsShoup(a, b Poly, bShoup []uint64, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.MulShoup(a.Coeffs[i], b.Coeffs[i], bShoup[i])
	}
}

// MulCoeffsShoupAdd sets out += a ⊙ b where bShoup = ShoupPrecompute(b) —
// the fused multiply-accumulate kernel of key switching and of sums against
// prepared plaintext operands.
func (r *Ring) MulCoeffsShoupAdd(a, b Poly, bShoup []uint64, out Poly) {
	mod := r.Mod
	for i := range out.Coeffs {
		out.Coeffs[i] = mod.Add(out.Coeffs[i], mod.MulShoup(a.Coeffs[i], b.Coeffs[i], bShoup[i]))
	}
}

// MulNTT sets out = a * b in R_q using the NTT. a and b are in coefficient
// domain and are not modified. Scratch comes from the ring's pool, so the
// steady state allocates nothing.
func (r *Ring) MulNTT(a, b, out Poly) {
	ta, tb := r.GetPoly(), r.GetPoly()
	a.CopyTo(ta)
	b.CopyTo(tb)
	r.NTT(ta)
	r.NTT(tb)
	r.MulCoeffs(ta, tb, out)
	r.INTT(out)
	r.PutPoly(ta)
	r.PutPoly(tb)
}

// MulNTTLazy multiplies a (coefficient domain) by bNTT (already transformed),
// writing the coefficient-domain product to out. Used for repeated products
// against a fixed operand such as encoded model weights.
func (r *Ring) MulNTTLazy(a, bNTT, out Poly) {
	ta := r.GetPoly()
	a.CopyTo(ta)
	r.NTT(ta)
	r.MulCoeffs(ta, bNTT, out)
	r.INTT(out)
	r.PutPoly(ta)
}

// Centered returns the centered representation of a as int64 values in
// (-q/2, q/2].
func (r *Ring) Centered(a Poly) []int64 {
	out := make([]int64, len(a.Coeffs))
	r.CenteredInto(a, out)
	return out
}

// CenteredInto writes the centered representation of a into out, which must
// have length N. Pair with GetCentered/PutCentered to keep the ciphertext
// multiply path allocation-free.
func (r *Ring) CenteredInto(a Poly, out []int64) {
	for i, c := range a.Coeffs {
		out[i] = r.Mod.Centered(c)
	}
}

// NegacyclicConvolveInt computes the exact negacyclic convolution of centered
// operands over the integers, returning 128-bit coefficients, in O(n²): the
// x^k coefficient is Σ_{i≤k} a[i]·b[k−i] − Σ_{i>k} a[i]·b[n+k−i]. It is the
// exact reference the schoolbook evaluator and the RNS multiplier's tests
// are built on.
func NegacyclicConvolveInt(a, b []int64) []u128.Int128 {
	n := len(a)
	out := make([]u128.Int128, n)
	for k := 0; k < n; k++ {
		acc := u128.Int128{}
		for i := 0; i <= k; i++ {
			acc = acc.AddMulInt64(a[i], b[k-i])
		}
		for i := k + 1; i < n; i++ {
			acc = acc.Sub(u128.MulInt64(a[i], b[n+k-i]))
		}
		out[k] = acc
	}
	return out
}
