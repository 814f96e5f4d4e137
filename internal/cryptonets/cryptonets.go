// Package cryptonets implements the pure-HE baseline the paper compares
// against (the "Encrypted" scheme of Fig. 8): CryptoNets-style inference
// [Gilad-Bachrach et al., ICML'16] where every layer runs homomorphically —
// the Sigmoid is replaced by the polynomial Square activation (ct×ct
// multiplication followed by relinearization) and mean pooling by the
// scaled mean-pool (window sum, no division).
//
// Like CryptoNets, the plaintext space is the CRT product of several small
// coprime moduli: each modulus gets its own FV instance (keeping
// multiplication noise manageable), the pipeline runs once per modulus, and
// the client reconstructs exact integer logits with the Chinese Remainder
// Theorem.
package cryptonets

import (
	"fmt"
	"math/big"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// Config tunes the baseline.
type Config struct {
	// N and QBits select the FV ring (CryptoNets needs a deeper circuit
	// than the hybrid, so the default tier is n=4096).
	N     int
	QBits int
	// DecompBaseBits is the relinearization decomposition base (small
	// bases add less relinearization noise at more key material).
	DecompBaseBits int
	// Moduli are the pairwise-coprime plaintext moduli.
	Moduli []uint64
	// PixelScale and WeightScale quantize inputs and weights.
	PixelScale  uint64
	WeightScale uint64
}

// DefaultConfig returns parameters tuned for the Fig. 7 CryptoNets variant.
func DefaultConfig() Config {
	return Config{
		N:              4096,
		QBits:          58,
		DecompBaseBits: 8,
		Moduli:         []uint64{113, 127, 131, 137, 139, 149},
		PixelScale:     8,
		WeightScale:    8,
	}
}

// Parameters builds the per-modulus FV parameter sets.
func (c Config) Parameters() ([]he.Parameters, error) {
	if len(c.Moduli) == 0 {
		return nil, fmt.Errorf("cryptonets: no plaintext moduli")
	}
	for i, a := range c.Moduli {
		for _, b := range c.Moduli[i+1:] {
			if gcd(a, b) != 1 {
				return nil, fmt.Errorf("cryptonets: moduli %d and %d are not coprime", a, b)
			}
		}
	}
	q, err := ring.GenerateNTTPrime(c.QBits, c.N)
	if err != nil {
		return nil, fmt.Errorf("cryptonets: generating modulus: %w", err)
	}
	out := make([]he.Parameters, len(c.Moduli))
	for i, t := range c.Moduli {
		p, err := he.NewParameters(c.N, q, t, c.DecompBaseBits)
		if err != nil {
			return nil, fmt.Errorf("cryptonets: parameters for t=%d: %w", t, err)
		}
		out[i] = p
	}
	return out, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// KeyBundle is the client-held key material: one FV keypair per modulus.
type KeyBundle struct {
	Params []he.Parameters
	SKs    []*he.SecretKey
	PKs    []*he.PublicKey
}

// EvalKeys is the server-held material: relinearization keys per modulus.
// Unlike the hybrid framework, the pure-HE baseline cannot avoid shipping
// these (§III-A "Relinearization").
type EvalKeys struct {
	Params []he.Parameters
	EKs    []*he.EvaluationKeys
}

// GenerateKeys creates all per-modulus key material.
func GenerateKeys(cfg Config, src ring.Source) (*KeyBundle, *EvalKeys, error) {
	params, err := cfg.Parameters()
	if err != nil {
		return nil, nil, err
	}
	kb := &KeyBundle{Params: params}
	ek := &EvalKeys{Params: params}
	for _, p := range params {
		kg, err := he.NewKeyGenerator(p, src)
		if err != nil {
			return nil, nil, err
		}
		sk, pk := kg.GenKeyPair()
		kb.SKs = append(kb.SKs, sk)
		kb.PKs = append(kb.PKs, pk)
		ek.EKs = append(ek.EKs, kg.GenEvaluationKeys(sk))
	}
	return kb, ek, nil
}

// CipherImage is the per-modulus encryption of one image: CTs[m][p] is
// pixel p under modulus m.
type CipherImage struct {
	Channels, Height, Width int
	CTs                     [][]*he.Ciphertext
}

// EncryptImage encrypts an image under every modulus.
func (kb *KeyBundle) EncryptImage(img *nn.Tensor, pixelScale uint64, src ring.Source) (*CipherImage, error) {
	if len(img.Shape) != 3 {
		return nil, fmt.Errorf("cryptonets: image must be [c, h, w]")
	}
	ints := nn.QuantizeImage(img, float64(pixelScale))
	ci := &CipherImage{Channels: img.Shape[0], Height: img.Shape[1], Width: img.Shape[2]}
	for m, pk := range kb.PKs {
		enc, err := he.NewEncryptor(pk, src)
		if err != nil {
			return nil, err
		}
		scalar, err := encoding.NewScalarEncoder(kb.Params[m])
		if err != nil {
			return nil, err
		}
		cts := make([]*he.Ciphertext, len(ints))
		for i, v := range ints {
			ct, err := enc.Encrypt(scalar.Encode(v))
			if err != nil {
				return nil, fmt.Errorf("cryptonets: encrypting pixel %d under modulus %d: %w", i, m, err)
			}
			cts[i] = ct
		}
		ci.CTs = append(ci.CTs, cts)
	}
	return ci, nil
}

// DecryptCRT decrypts per-modulus result vectors and reconstructs the
// exact integers with the CRT, centered in (-M/2, M/2] for M = prod(t_i).
func (kb *KeyBundle) DecryptCRT(results [][]*he.Ciphertext) ([]int64, error) {
	if len(results) != len(kb.SKs) {
		return nil, fmt.Errorf("cryptonets: %d result vectors for %d moduli", len(results), len(kb.SKs))
	}
	if len(results) == 0 || len(results[0]) == 0 {
		return nil, fmt.Errorf("cryptonets: empty results")
	}
	count := len(results[0])
	// Residues per output index.
	residues := make([][]uint64, count)
	for i := range residues {
		residues[i] = make([]uint64, len(results))
	}
	for m, cts := range results {
		if len(cts) != count {
			return nil, fmt.Errorf("cryptonets: modulus %d returned %d values, want %d", m, len(cts), count)
		}
		dec, err := he.NewDecryptor(kb.SKs[m])
		if err != nil {
			return nil, err
		}
		for i, ct := range cts {
			pt, err := dec.Decrypt(ct)
			if err != nil {
				return nil, fmt.Errorf("cryptonets: decrypting output %d modulus %d: %w", i, m, err)
			}
			residues[i][m] = pt.Poly.Coeffs[0]
		}
	}
	moduli := make([]uint64, len(kb.Params))
	for i, p := range kb.Params {
		moduli[i] = p.T
	}
	out := make([]int64, count)
	for i, rs := range residues {
		v, err := crtReconstruct(rs, moduli)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// crtReconstruct solves x ≡ r_i (mod m_i), returning the centered value.
func crtReconstruct(rs, ms []uint64) (int64, error) {
	bigM := big.NewInt(1)
	for _, m := range ms {
		bigM.Mul(bigM, new(big.Int).SetUint64(m))
	}
	x := new(big.Int)
	for i, m := range ms {
		mi := new(big.Int).SetUint64(m)
		Mi := new(big.Int).Div(bigM, mi)
		inv := new(big.Int).ModInverse(Mi, mi)
		if inv == nil {
			return 0, fmt.Errorf("cryptonets: moduli not coprime")
		}
		term := new(big.Int).SetUint64(rs[i])
		term.Mul(term, Mi)
		term.Mul(term, inv)
		x.Add(x, term)
	}
	x.Mod(x, bigM)
	// Center.
	half := new(big.Int).Rsh(bigM, 1)
	if x.Cmp(half) > 0 {
		x.Sub(x, bigM)
	}
	if !x.IsInt64() {
		return 0, fmt.Errorf("cryptonets: CRT value exceeds int64")
	}
	return x.Int64(), nil
}

// CRTRange returns the product of the plaintext moduli; exact recovery
// needs |value| < CRTRange/2.
func (cfg Config) CRTRange() *big.Int {
	m := big.NewInt(1)
	for _, t := range cfg.Moduli {
		m.Mul(m, new(big.Int).SetUint64(t))
	}
	return m
}
