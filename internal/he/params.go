// Package he implements the Fan–Vercauteren (FV) somewhat-homomorphic
// encryption scheme over R_q = Z_q[x]/(x^n+1), following the algorithm set
// the paper lists in §II-B: SecretKeyGen, PublicKeyGen, Encrypt, Decrypt,
// Add, Multiply and EvaluationKeyGen (relinearization), plus an invariant
// noise-budget estimator in the style of SEAL.
package he

import (
	"fmt"
	"math"
	"math/bits"

	"hesgx/internal/ring"
)

// DefaultDecompositionBase is the default base w (as a bit count) into which
// ciphertext elements are decomposed during relinearization.
const DefaultDecompositionBase = 16

// Parameters fixes an FV instantiation. Construct with NewParameters or
// DefaultParameters; a zero Parameters value is not usable.
type Parameters struct {
	// N is the ring degree (power of two).
	N int
	// Q is the coefficient modulus, an NTT-friendly prime below 2^58.
	Q uint64
	// T is the plaintext modulus, T << Q.
	T uint64
	// DecompBaseBits is log2 of the relinearization decomposition base w.
	DecompBaseBits int

	ring *ring.Ring
	// delta = floor(Q/T).
	delta uint64
}

// defaultQBits mirrors SEAL 2.1's ChooserEvaluator::default_parameter_options
// in spirit: it maps a ring degree to an automatically chosen coefficient
// modulus size. Values are capped at ring.MaxModulusBits (word-size limbs);
// the RNS multiplier serves every listed degree.
var defaultQBits = map[int]int{
	1024: 46,
	2048: 56,
	4096: 58,
	8192: 58,
}

// DefaultParameterOptions returns the supported ring degrees in ascending
// order, echoing the SEAL chooser the paper's implementation called.
func DefaultParameterOptions() []int {
	return []int{1024, 2048, 4096, 8192}
}

// DefaultParameters picks the coefficient modulus automatically for the
// given ring degree and plaintext modulus, like the paper's use of
// ChooserEvaluator::default_parameter_options().at(1024).
func DefaultParameters(n int, t uint64) (Parameters, error) {
	qBits, ok := defaultQBits[n]
	if !ok {
		return Parameters{}, fmt.Errorf("he: no default parameters for degree %d (supported: %v)", n, DefaultParameterOptions())
	}
	q, err := ring.GenerateNTTPrime(qBits, n)
	if err != nil {
		return Parameters{}, fmt.Errorf("he: generating default modulus: %w", err)
	}
	return NewParameters(n, q, t, DefaultDecompositionBase)
}

// DefaultParametersLowLift is DefaultParameters with the coefficient
// modulus additionally constrained to q ≡ 1 (mod t), which makes the FV
// plain-lift noise term r_t(q) = q mod t equal to 1. Plaintext-space wraps
// (frequent when values are negative, i.e. stored near t) then add
// negligible noise instead of up to t per wrap. Inference engines use this
// chooser.
func DefaultParametersLowLift(n int, t uint64) (Parameters, error) {
	qBits, ok := defaultQBits[n]
	if !ok {
		return Parameters{}, fmt.Errorf("he: no default parameters for degree %d (supported: %v)", n, DefaultParameterOptions())
	}
	q, err := ring.GenerateNTTPrimeCongruent(qBits, n, t)
	if err != nil {
		return Parameters{}, fmt.Errorf("he: generating low-lift modulus: %w", err)
	}
	return NewParameters(n, q, t, DefaultDecompositionBase)
}

// PlainLift returns r_t(q) = q mod t, the noise added per plaintext-space
// wrap in Δ-scaled arithmetic.
func (p Parameters) PlainLift() uint64 { return p.Q % p.T }

// NewParameters validates and precomputes an FV parameter set.
func NewParameters(n int, q, t uint64, decompBaseBits int) (Parameters, error) {
	if n < 16 || n&(n-1) != 0 {
		return Parameters{}, fmt.Errorf("he: ring degree %d must be a power of two >= 16", n)
	}
	if t < 2 {
		return Parameters{}, fmt.Errorf("he: plaintext modulus %d too small", t)
	}
	if t >= q/4 {
		return Parameters{}, fmt.Errorf("he: plaintext modulus %d too close to coefficient modulus %d", t, q)
	}
	if decompBaseBits < 1 || decompBaseBits > 60 {
		return Parameters{}, fmt.Errorf("he: decomposition base bits %d out of range", decompBaseBits)
	}
	r, err := ring.NewRing(n, q)
	if err != nil {
		return Parameters{}, fmt.Errorf("he: building ring: %w", err)
	}
	return Parameters{
		N:              n,
		Q:              q,
		T:              t,
		DecompBaseBits: decompBaseBits,
		ring:           r,
		delta:          q / t,
	}, nil
}

// Ring exposes the underlying polynomial ring.
func (p Parameters) Ring() *ring.Ring { return p.ring }

// Delta returns floor(Q/T), the plaintext scaling factor.
func (p Parameters) Delta() uint64 { return p.delta }

// Valid reports whether p was built by NewParameters.
func (p Parameters) Valid() bool { return p.ring != nil }

// Equal reports whether two parameter sets are interchangeable.
func (p Parameters) Equal(o Parameters) bool {
	return p.N == o.N && p.Q == o.Q && p.T == o.T && p.DecompBaseBits == o.DecompBaseBits
}

// DecompDigits returns the number of base-w digits of a coefficient of Q.
func (p Parameters) DecompDigits() int {
	return p.DecompDigitsFor(p.DecompBaseBits)
}

// DecompDigitsFor returns the number of base-2^baseBits digits of a
// coefficient of Q — the digit count of a key-switch decomposition running
// at a base other than the relinearization default (Galois keys use a much
// smaller base to keep the rotation noise term low; see NoiseBound.KeySwitch).
func (p Parameters) DecompDigitsFor(baseBits int) int {
	return (bits.Len64(p.Q-1) + baseBits - 1) / baseBits
}

// MaxNoiseBudget is the fresh-ciphertext upper bound on the invariant noise
// budget, log2(Q/(2T)).
func (p Parameters) MaxNoiseBudget() float64 {
	return math.Log2(float64(p.Q)) - math.Log2(float64(p.T)) - 1
}

func (p Parameters) String() string {
	return fmt.Sprintf("FV{n=%d, q=%d (%d bits), t=%d, w=2^%d}",
		p.N, p.Q, bits.Len64(p.Q), p.T, p.DecompBaseBits)
}

// LiftCentered maps a plaintext residue in [0, T) to its centered embedding
// in [0, Q): values above T/2 are treated as negative. This lift minimizes
// the noise added by plaintext multiplication.
func (p Parameters) LiftCentered(c uint64) uint64 {
	if c > p.T/2 {
		return p.Q - (p.T - c)
	}
	return c
}
