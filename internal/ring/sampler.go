package ring

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	mrand "math/rand/v2"
)

// DefaultSigma is the standard deviation of the RLWE error distribution,
// matching the SEAL 2.1 default of 3.19.
const DefaultSigma = 3.19

// gaussianTailCut truncates the discrete Gaussian at ±ceil(6*sigma), beyond
// which the probability mass is cryptographically negligible.
const gaussianTailCut = 6

// GaussianBound returns the hard per-coefficient bound of the truncated
// error distribution, ceil(sigma * tailcut). Every error polynomial the
// Sampler draws satisfies ‖e‖∞ <= GaussianBound() with certainty (the tail
// is cut, not just improbable), which is what makes the static noise
// accountant's per-op bounds sound rather than probabilistic.
func GaussianBound() float64 {
	return math.Ceil(DefaultSigma * gaussianTailCut)
}

// Source yields uniform random 64-bit words. Implementations must be safe
// for the single-goroutine use of a Sampler; Samplers themselves are not
// concurrency-safe.
type Source interface {
	Uint64() uint64
}

// NewCryptoSource returns a cryptographically secure Source: a ChaCha8
// stream keyed once with 32 bytes from crypto/rand. Every call yields an
// independent stream, so concurrent Samplers each take their own.
func NewCryptoSource() Source {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		// crypto/rand failure is unrecoverable for key material.
		panic(fmt.Sprintf("ring: crypto/rand unavailable: %v", err))
	}
	return mrand.NewChaCha8(key)
}

// NewSeededSource returns a deterministic Source (ChaCha8 keyed by seed) for
// reproducible tests and benchmarks. It must not be used for real keys.
func NewSeededSource(seed uint64) Source {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:16], seed^0x9e3779b97f4a7c15)
	return mrand.NewChaCha8(key)
}

// NewSource32 returns the deterministic ChaCha8 stream keyed by the full
// 32-byte seed. It is the expansion primitive of seed-compressible
// ciphertexts: both endpoints derive the identical uniform polynomial from
// the same seed, so only the seed crosses the wire.
func NewSource32(seed [32]byte) Source {
	return mrand.NewChaCha8(seed)
}

// UniformFromSeed deterministically fills p with uniform coefficients in
// [0, q) expanded from a 32-byte ChaCha8 seed. The rejection-sampling walk is
// fixed by (seed, q, len(p)), making the expansion a stable wire contract:
// a seeded ciphertext's `a` polynomial is reproduced exactly on receipt.
func (r *Ring) UniformFromSeed(seed [32]byte, p Poly) {
	src := NewSource32(seed)
	q := r.Mod.Q
	bound := ^uint64(0) - (^uint64(0) % q)
	for i := range p.Coeffs {
		for {
			v := src.Uint64()
			if v < bound {
				p.Coeffs[i] = v % q
				break
			}
		}
	}
}

// Sampler draws the random polynomials the FV scheme needs: uniform in R_q,
// uniform ternary secrets, and truncated discrete Gaussian errors.
type Sampler struct {
	ring *Ring
	src  Source
	// cdt is the cumulative distribution table of the half Gaussian,
	// scaled to 2^63; index i holds P(|X| <= i).
	cdt []uint64
}

// NewSampler builds a sampler over r drawing entropy from src.
func NewSampler(r *Ring, src Source) *Sampler {
	tail := int(math.Ceil(DefaultSigma * gaussianTailCut))
	probs := make([]float64, tail+1)
	total := 0.0
	for i := 0; i <= tail; i++ {
		p := math.Exp(-float64(i*i) / (2 * DefaultSigma * DefaultSigma))
		if i > 0 {
			p *= 2 // both signs
		}
		probs[i] = p
		total += p
	}
	cdt := make([]uint64, tail+1)
	cum := 0.0
	for i := 0; i <= tail; i++ {
		cum += probs[i] / total
		if cum > 1 {
			cum = 1
		}
		cdt[i] = uint64(cum * float64(1<<63))
	}
	cdt[tail] = 1 << 63
	return &Sampler{ring: r, src: src, cdt: cdt}
}

// Uniform fills p with independent uniform coefficients in [0, q) using
// rejection sampling to avoid modulo bias.
func (s *Sampler) Uniform(p Poly) {
	q := s.ring.Mod.Q
	// Rejection bound: largest multiple of q below 2^64.
	bound := ^uint64(0) - (^uint64(0) % q)
	for i := range p.Coeffs {
		for {
			v := s.src.Uint64()
			if v < bound {
				p.Coeffs[i] = v % q
				break
			}
		}
	}
}

// Ternary fills p with coefficients drawn uniformly from {-1, 0, 1}
// represented mod q. FV secret keys use this distribution.
func (s *Sampler) Ternary(p Poly) {
	mod := s.ring.Mod
	// Each source word is consumed fully: 32 two-bit trials, mapping
	// 0,1,2 -> -1,0,1 and rejecting 3. Bits left when p is full are dropped.
	var word uint64
	left := 0
	for i := range p.Coeffs {
		for {
			if left == 0 {
				word, left = s.src.Uint64(), 32
			}
			v := word & 3
			word >>= 2
			left--
			if v == 3 {
				continue
			}
			if v == 0 {
				p.Coeffs[i] = mod.Q - 1 // -1
			} else {
				p.Coeffs[i] = v - 1
			}
			break
		}
	}
}

// Gaussian fills p with centered discrete Gaussian coefficients of standard
// deviation DefaultSigma, truncated at ±6σ, via inversion sampling against
// the precomputed CDF table. One source word per coefficient: the upper 63
// bits select the magnitude, bit 0 the sign.
func (s *Sampler) Gaussian(p Poly) {
	mod := s.ring.Mod
	for i := range p.Coeffs {
		word := s.src.Uint64()
		mag := s.halfGaussian(word >> 1)
		if mag == 0 || word&1 == 0 {
			p.Coeffs[i] = uint64(mag)
		} else {
			p.Coeffs[i] = mod.Q - uint64(mag)
		}
	}
}

// halfGaussian inverts the half-Gaussian CDF at the 63-bit uniform u.
func (s *Sampler) halfGaussian(u uint64) int {
	for i, c := range s.cdt {
		if u < c {
			return i
		}
	}
	return len(s.cdt) - 1
}
