package core

import (
	"hesgx/internal/nn"
)

// EngineOption customizes hybrid engine construction — the functional-
// options surface over the engine Config.
type EngineOption func(*Config)

// WithScales sets the fixed-point quantization scales for input pixels,
// model weights, and enclave-computed activations.
func WithScales(pixel, weight, act uint64) EngineOption {
	return func(c *Config) {
		c.PixelScale, c.WeightScale, c.ActScale = pixel, weight, act
	}
}

// WithPoolStrategy selects where pooling happens (§VI-D); the default
// PoolAuto applies the paper's crossover rule.
func WithPoolStrategy(p PoolStrategy) EngineOption {
	return func(c *Config) { c.Pool = p }
}

// WithSIMD forces slot-packed execution for every inference (§VIII).
// Lane-packed images (CipherImage.Lanes > 1) run SIMD regardless; this
// option only matters for engines fed pre-packed scalar-layout images.
func WithSIMD(on bool) EngineOption {
	return func(c *Config) { c.SIMD = on }
}

// WithEngineWorkers parallelizes the homomorphic linear layers: 0 or 1 =
// sequential, -1 = one worker per CPU, n > 1 = exactly n.
func WithEngineWorkers(n int) EngineOption {
	return func(c *Config) { c.Workers = n }
}

// WithSingleECalls switches activation calls to one ECALL per value — the
// EncryptSGX(single) control group of Fig. 8.
func WithSingleECalls(on bool) EngineOption {
	return func(c *Config) { c.SingleECalls = on }
}

// WithPackedConv enables the rotation-keyed packed execution prefix for
// slot-packed images (Client.EncryptImagePacked): one ciphertext per
// channel, convolution and pooling as hoisted Galois rotations. Falls back
// to scalar layout — with the reason recorded in PackedInfo — when the
// parameters or model shape do not support it.
func WithPackedConv(on bool) EngineOption {
	return func(c *Config) { c.PackedConv = on }
}

// NewEngine plans the hybrid execution of model with DefaultConfig
// semantics refined by options.
func NewEngine(svc *EnclaveService, model *nn.Network, opts ...EngineOption) (*HybridEngine, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return newHybridEngine(svc, model, cfg)
}
