package core

import (
	"fmt"

	"hesgx/internal/he"
)

// DefaultHybridParameters returns the FV parameter set the hybrid engine
// ships with: the n=2048 tier of the SEAL-style chooser with a plaintext
// modulus (2^25) sized for the Fig. 7 CNN's integer pipeline at the
// DefaultConfig scales. Because the enclave re-encrypts at every
// non-linear layer, each homomorphic segment is depth-1 in ct×pt
// multiplications; the remaining constraint is the 864-term fully
// connected sum, which this t keeps below the q/(2t) threshold even under
// worst-case noise alignment.
func DefaultHybridParameters() (he.Parameters, error) {
	// The low-lift chooser (q ≡ 1 mod t) keeps the r_t(q)-per-wrap noise
	// term at 1; without it, layers with many negative values (ReLU
	// family) lose ~log2(q mod t) bits of budget to plaintext wraps.
	params, err := he.DefaultParametersLowLift(2048, 1<<25)
	if err != nil {
		return he.Parameters{}, fmt.Errorf("core: default hybrid parameters: %w", err)
	}
	return params, nil
}
