package core

import (
	"context"
	"errors"
	"fmt"

	"hesgx/internal/he"
	"hesgx/internal/nn"
)

// OpKind identifies one of the enclave's non-linear operations. It replaces
// the dozen near-identical EnclaveService methods: every decrypt–compute–
// re-encrypt ECALL is now described by a NonlinearOp value and dispatched
// through EnclaveService.Nonlinear.
type OpKind uint8

// Non-linear operation kinds.
const (
	// OpSigmoid applies the exact sigmoid to each value (§IV-D).
	OpSigmoid OpKind = iota + 1
	// OpActivation applies the activation selected by NonlinearOp.Act
	// (nn.ActKind values; 0 falls back to the service default).
	OpActivation
	// OpPoolDivide divides homomorphically computed window sums by
	// Divisor — the enclave half of the SGXDiv pooling strategy (§VI-D).
	OpPoolDivide
	// OpPoolFull mean-pools a whole feature map inside the enclave
	// ("SGXPool", §VI-D). Requires Geometry. With NonlinearOp.Act set it is a
	// fused enclave stage: the batch is a linear layer's output, and the
	// enclave applies that activation (InScale → OutScale) to the decrypted
	// integers before pooling them — the activation ECALL in front of the
	// pool, without its boundary crossing or its re-encryption. In the scalar
	// layout the map may cross coefficient-packed in both directions: CoeffIn
	// values per input ciphertext, and with CoeffOut one output ciphertext
	// (pooled value i at coefficient i, as on OpPoolUnpack).
	OpPoolFull
	// OpPoolMax max-pools inside the enclave (not expressible under HE).
	// Requires Geometry; Act, CoeffIn and CoeffOut as for OpPoolFull.
	OpPoolMax
	// OpRefresh decrypts and re-encrypts, resetting noise (§IV-E).
	OpRefresh
	// OpLanePack merges Lanes scalar ciphertext groups into slot-packed
	// ciphertexts: the input batch holds the groups back to back
	// (lane-major: lane k's P ciphertexts at offset k*P) and the output is
	// P ciphertexts whose CRT slot k carries lane k's value. Only the
	// enclave can repack — it requires the secret key — and the output is
	// freshly encrypted, so packing doubles as a noise refresh (§VIII).
	OpLanePack
	// OpLaneDemux splits slot-packed ciphertexts back into Lanes scalar
	// groups (lane-major), the reply half of lane-batched serving.
	OpLaneDemux
	// OpPoolUnpack is OpPoolFull for the rotation-packed layout: the input is
	// the feature map itself, one slot-packed ciphertext per channel with
	// value (y, x) at slot y·Lanes + x. The enclave decrypts with the
	// rotation-aware packed codec, applies Act (InScale → OutScale) to the
	// decrypted integers when it is set — the fused stage, as on OpPoolFull —
	// sums every Window×Window window and divides by Divisor
	// (round-half-away), all in plaintext, and re-encrypts the pooled map in
	// channel-major order — the order flatten assumes — in one of two
	// layouts: with CoeffOut, ONE ciphertext whose plaintext coefficient i is
	// pooled value i (the input of the coefficient-packed FC kernel; needs
	// Channels·oh·ow ≤ n); without it, one scalar ciphertext per value for
	// the scalar FC tail. Lanes carries the slot row stride of the packed
	// layout (the original image width), not a lane count.
	OpPoolUnpack
)

// String names the op kind for metrics and logs.
func (k OpKind) String() string {
	switch k {
	case OpSigmoid:
		return "sigmoid"
	case OpActivation:
		return "activation"
	case OpPoolDivide:
		return "pool_divide"
	case OpPoolFull:
		return "pool_full"
	case OpPoolMax:
		return "pool_max"
	case OpRefresh:
		return "refresh"
	case OpLanePack:
		return "lane_pack"
	case OpLaneDemux:
		return "lane_demux"
	case OpPoolUnpack:
		return "pool_unpack"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// ecallName maps the op kind to the enclave's ECALL table.
func (k OpKind) ecallName() (string, error) {
	switch k {
	case OpSigmoid:
		return ECallSigmoid, nil
	case OpActivation:
		return ECallActivation, nil
	case OpPoolDivide:
		return ECallPoolDivide, nil
	case OpPoolFull:
		return ECallPoolFull, nil
	case OpPoolMax:
		return ECallPoolMax, nil
	case OpRefresh:
		return ECallRefresh, nil
	case OpLanePack:
		return ECallLanePack, nil
	case OpLaneDemux:
		return ECallLaneDemux, nil
	case OpPoolUnpack:
		return ECallPoolUnpack, nil
	default:
		return "", fmt.Errorf("core: unknown op kind %d", uint8(k))
	}
}

// Geometry describes the feature map entering a whole-map pooling op.
type Geometry struct {
	Channels, Height, Width int
	// Window is the pooling window size (output is Height/Window ×
	// Width/Window).
	Window int
}

// NonlinearOp fully describes one enclave non-linear call: every
// ciphertext of the batch it travels with shares one enclave transition
// (the paper's per-layer ECALL batching, §VIII).
type NonlinearOp struct {
	Kind OpKind
	// SIMD selects slot-packed operation over every CRT slot (§VIII).
	SIMD bool
	// InScale/OutScale are the fixed-point scales for dequantization and
	// requantization around the activation.
	InScale, OutScale uint64
	// Divisor divides decrypted values (OpPoolDivide) or plaintext window
	// sums (OpPoolUnpack).
	Divisor uint64
	// Act selects the activation (nn.ActKind values, Sigmoid…Square). On
	// OpActivation 0 uses the service default, which SetActivation
	// configures; on OpPoolFull/OpPoolMax/OpPoolUnpack non-zero asks for the
	// fused stage and 0 for plain pooling. No other op applies an activation.
	Act int
	// Geometry describes the feature map for OpPoolFull/OpPoolMax/OpPoolUnpack.
	Geometry Geometry
	// Lanes is the lane count for OpLanePack/OpLaneDemux: how many scalar
	// ciphertext groups share each slot-packed ciphertext.
	Lanes int
	// CoeffOut asks OpPoolUnpack — or a scalar-layout OpPoolFull/OpPoolMax —
	// for the coefficient-packed output layout (one ciphertext, value i at
	// coefficient i) instead of one scalar ciphertext per pooled value.
	CoeffOut bool
	// CoeffIn is how many map values share each input ciphertext of a
	// scalar-layout OpPoolFull/OpPoolMax: flat channel-major value i sits at
	// coefficient i mod CoeffIn of ciphertext i div CoeffIn, so the batch
	// holds ⌈Channels·Height·Width/CoeffIn⌉ ciphertexts. 0 reads as 1, one
	// value per ciphertext at the constant coefficient, and is the only value
	// every other op — and a SIMD batch, whose slots are in use — may carry.
	CoeffIn int
}

// ErrActivationKind marks an activation kind outside nn.Sigmoid…nn.Square.
// Both NonlinearOp.Validate and the enclave refuse one before any
// ciphertext is decrypted: an unknown kind is an error, never a sigmoid.
var ErrActivationKind = errors.New("unknown activation kind")

func checkActKind(kind int) error {
	if kind < int(nn.Sigmoid) || kind > int(nn.Square) {
		return fmt.Errorf("%w %d", ErrActivationKind, kind)
	}
	return nil
}

// Validate checks the op is internally consistent before it crosses the
// enclave boundary.
func (op NonlinearOp) Validate() error {
	scalarPool := (op.Kind == OpPoolFull || op.Kind == OpPoolMax) && !op.SIMD
	if op.CoeffOut && op.Kind != OpPoolUnpack && !scalarPool {
		return fmt.Errorf("core: %s op (SIMD %v) has no coefficient-packed output", op.Kind, op.SIMD)
	}
	if op.CoeffIn < 0 || (op.CoeffIn != 0 && !scalarPool) {
		return fmt.Errorf("core: %s op (SIMD %v) takes no coefficient-packed input, but carries %d values per ciphertext", op.Kind, op.SIMD, op.CoeffIn)
	}
	switch {
	case op.Act == 0:
		// No activation stage (or, on OpActivation, the service default).
	case op.Kind != OpActivation && op.Kind != OpPoolFull && op.Kind != OpPoolMax && op.Kind != OpPoolUnpack:
		return fmt.Errorf("core: %s op applies no activation, but carries kind %d", op.Kind, op.Act)
	case op.InScale == 0 || op.OutScale == 0:
		return fmt.Errorf("core: %s op with an activation needs non-zero scales", op.Kind)
	default:
		if err := checkActKind(op.Act); err != nil {
			return fmt.Errorf("core: %s op: %w", op.Kind, err)
		}
	}
	switch op.Kind {
	case OpSigmoid, OpActivation:
		if op.InScale == 0 || op.OutScale == 0 {
			return fmt.Errorf("core: %s op needs non-zero scales", op.Kind)
		}
	case OpPoolDivide:
		if op.Divisor == 0 {
			return fmt.Errorf("core: pool divide by zero")
		}
	case OpPoolFull, OpPoolMax:
		g := op.Geometry
		if g.Channels <= 0 || g.Height <= 0 || g.Width <= 0 || g.Window <= 0 {
			return fmt.Errorf("core: %s op geometry %dx%dx%d window %d invalid",
				op.Kind, g.Channels, g.Height, g.Width, g.Window)
		}
		if g.Height%g.Window != 0 || g.Width%g.Window != 0 {
			return fmt.Errorf("core: %s op window %d does not divide %dx%d",
				op.Kind, g.Window, g.Height, g.Width)
		}
	case OpRefresh:
		// No parameters.
	case OpLanePack, OpLaneDemux:
		if op.Lanes < 2 {
			return fmt.Errorf("core: %s op needs at least 2 lanes, got %d", op.Kind, op.Lanes)
		}
	case OpPoolUnpack:
		g := op.Geometry
		if g.Channels <= 0 || g.Height <= 0 || g.Width <= 0 || g.Window <= 0 {
			return fmt.Errorf("core: %s op geometry %dx%dx%d window %d invalid",
				op.Kind, g.Channels, g.Height, g.Width, g.Window)
		}
		if g.Height%g.Window != 0 || g.Width%g.Window != 0 {
			return fmt.Errorf("core: %s op window %d does not divide %dx%d",
				op.Kind, g.Window, g.Height, g.Width)
		}
		if op.Divisor == 0 {
			return fmt.Errorf("core: %s op divide by zero", op.Kind)
		}
		if op.Lanes < g.Width {
			return fmt.Errorf("core: %s op slot stride %d below map width %d", op.Kind, op.Lanes, g.Width)
		}
	default:
		return fmt.Errorf("core: unknown op kind %d", uint8(op.Kind))
	}
	return nil
}

// request builds the boundary message for the op over an encoded batch.
func (op NonlinearOp) request(ctBytes []byte) *nonlinearRequest {
	req := &nonlinearRequest{
		InScale:  op.InScale,
		OutScale: op.OutScale,
		Divisor:  op.Divisor,
		Act:      uint32(op.Act),
		Channels: uint32(op.Geometry.Channels),
		Height:   uint32(op.Geometry.Height),
		Width:    uint32(op.Geometry.Width),
		Window:   uint32(op.Geometry.Window),
		Lanes:    uint32(op.Lanes),
		CoeffIn:  uint32(op.CoeffIn),
		CTs:      ctBytes,
	}
	if op.SIMD {
		req.SIMD = 1
	}
	if op.CoeffOut {
		req.CoeffOut = 1
	}
	if req.InScale == 0 {
		req.InScale = 1
	}
	if req.OutScale == 0 {
		req.OutScale = 1
	}
	if req.Divisor == 0 {
		req.Divisor = 1
	}
	return req
}

// NonlinearCaller is the interface the engine drives enclave non-linear
// layers through. *EnclaveService implements it; tests and the benchmark's
// traced run wrap one to record or probe the calls an inference makes.
type NonlinearCaller interface {
	Nonlinear(ctx context.Context, op NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error)
}
