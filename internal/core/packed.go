package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"hesgx/internal/he"
	"hesgx/internal/nn"
)

// Rotation-keyed packed execution (the one-ciphertext feature-map path).
//
// A slot-packed image puts pixel (y, x) of each channel at slot y·W + x of
// one ciphertext (row 0 of the 2×(n/2) rotation hypercube — see
// encoding.PackedEncoder). Under that layout the whole conv/act/pool prefix
// of the paper CNN runs on a handful of ciphertexts instead of one per
// pixel:
//
//   - Convolution: output (y, x) needs input (y+ky, x+kx), which sits
//     exactly ky·W + kx slots to the left. One hoisted rotation per window
//     tap aligns every output position at once; the per-output-channel
//     accumulation is then K²·InC scalar multiply-adds over whole
//     ciphertexts. Output (y, x) lands at slot y·W + x — the slot stride
//     stays the original image width through the prefix.
//   - Activation and pooling: ONE enclave crossing. §VI-D sums windows under
//     HE only when that shrinks the batch that crosses; here the map is C
//     ciphertexts before and after a rotation-based window sum, so the
//     crossover always picks the whole map. The pool-unpack ECALL takes the
//     conv output itself, applies the activation to the decrypted integers,
//     sums and divides each window in plaintext, and re-encrypts the pooled
//     map for the tail of the plan. (Below the fusion floor, or under an
//     explicit pool strategy, the activation keeps its own element-wise SIMD
//     ECALL — a fixed slot permutation commutes with element-wise ops — and
//     pool-unpack pools its output.)
//   - Tail: when the prefix is followed by flatten → FC and the pooled map
//     fits one plaintext, pool-unpack returns ONE coefficient-packed
//     ciphertext and the FC runs as one plaintext product per output
//     (coefftail.go). Otherwise it returns one scalar ciphertext per
//     pooled value and the scalar plan's steps take over.
//
// The integer arithmetic mod t is identical to the scalar layout's, so the
// packed pipeline is bit-exact against the scalar oracle; only the
// ciphertext count and the noise path (key-switch terms on the conv taps
// instead of per-pixel fresh encryptions, one plaintext product instead of a
// weighted sum) change.

// packedPlan records the packed-prefix decision NewHybridEngine makes when
// Config.PackedConv is set: which leading steps run on slot-packed
// ciphertexts, and the per-layout Galois keys acquired so far. Immutable
// after planning except for the key cache.
type packedPlan struct {
	// prefix is how many leading plan steps run packed (conv, act, pool).
	prefix int
	// conv is the packed convolution (stride 1; the quantized weights are
	// shared with the scalar step so both paths multiply identical
	// integers).
	conv *nn.QuantizedConv
	// baseBits is the Galois key decomposition base for this plan.
	baseBits int
	// convBudgetBits/poolBudgetBits are the static accountant's predicted
	// remaining budgets for the packed path (the scalar plan's predictions
	// do not apply: rotations add key-switch noise): of the conv outputs, and
	// of the ciphertexts entering pool-unpack — the conv outputs again when
	// the act+pool pair is planned as one crossing, the activation ECALL's
	// fresh re-encryptions otherwise.
	convBudgetBits float64
	poolBudgetBits float64
	// coeffTail records the planner's tail decision: pool-unpack emits one
	// coefficient-packed ciphertext and the FC after the prefix runs the
	// coefficient kernel, with fcBudgetBits the predicted budget of its
	// outputs. When false, coeffTailReason says why the scalar unpack stays.
	coeffTail       bool
	coeffTailReason string
	fcBudgetBits    float64

	// mu guards the per-stride Galois key cache and installed key sets.
	mu sync.Mutex
	// keys caches the resolved key set per slot stride (image width).
	keys map[int]*he.GaloisKeys
	// installed holds externally uploaded key sets (wire path), consulted
	// before asking the enclave to generate.
	installed []*he.GaloisKeys
}

// rotationSteps derives the minimal rotation set for one slot stride: the
// conv window tap offsets minus the identity, K²−1 keys. Nothing else in the
// prefix rotates — pooling happens on plaintext inside the enclave.
func (p *packedPlan) rotationSteps(stride int) []int {
	out := make([]int, 0, p.conv.K*p.conv.K)
	for ky := 0; ky < p.conv.K; ky++ {
		for kx := 0; kx < p.conv.K; kx++ {
			if step := ky*stride + kx; step != 0 && !slices.Contains(out, step) {
				out = append(out, step)
			}
		}
	}
	slices.Sort(out)
	return out
}

// planPacked decides whether the model's leading steps can run on packed
// ciphertexts under cfg, returning the plan or a human-readable reason for
// falling back to the scalar layout. Requirements: a batching-capable
// plaintext modulus, a [conv, act, pool] prefix with stride-1 convolution
// and mean pooling, and positive predicted noise budget through the
// rotation-keyed conv kernel.
func planPacked(params he.Parameters, steps []*planStep, slotCapable bool) (*packedPlan, string) {
	if !slotCapable {
		return nil, fmt.Sprintf("plaintext modulus %d is not batching-capable (needs prime t ≡ 1 mod 2n)", params.T)
	}
	if len(steps) < 3 || steps[0].kind != stepConv || steps[1].kind != stepAct || steps[2].kind != stepPool {
		return nil, "model does not open with a conv → act → pool prefix"
	}
	conv := steps[0].conv
	if conv.Stride != 1 {
		return nil, fmt.Sprintf("packed convolution requires stride 1, got %d", conv.Stride)
	}
	pool := steps[2]
	if pool.pool != nn.MeanPool {
		return nil, fmt.Sprintf("packed pooling requires mean pooling, got %v", pool.pool)
	}
	baseBits := he.DefaultGaloisBaseBits

	// Packed noise path: every window tap is a rotated (key-switched) copy
	// of the fresh upload, and the conv output is a weighted sum of those
	// copies plus a bias. The bound must stay positive or the enclave would
	// refresh garbage; nothing homomorphic happens between it and the tail.
	convNoise := params.FreshNoiseBound().KeySwitch(baseBits).
		WeightedSum(float64(conv.MaxKernelL1()), conv.InC*conv.K*conv.K).AddPlain()
	if convNoise.Exhausted() {
		return nil, fmt.Sprintf("packed conv noise bound exhausted (%.1f bits; lower WeightScale)", convNoise.BudgetBits())
	}
	p := &packedPlan{
		prefix:         3,
		conv:           conv,
		baseBits:       baseBits,
		convBudgetBits: convNoise.BudgetBits(),
		poolBudgetBits: convNoise.BudgetBits(),
		keys:           map[int]*he.GaloisKeys{},
	}
	if !pool.fused {
		p.poolBudgetBits = params.FreshNoiseBound().BudgetBits()
	}
	p.fcBudgetBits, p.coeffTailReason = planCoeffTail(params, steps, p.prefix)
	if p.coeffTail = p.coeffTailReason == ""; p.coeffTail {
		steps[p.prefix+1].coeffRows = true
	}
	return p, ""
}

// budgetBits returns the packed path's prediction for plan step i when it
// differs from the scalar plan's (rotations add key-switch noise; the
// coefficient tail multiplies one fresh ciphertext): the conv output, which
// is also what enters the activation's ECALL, the pool-unpack input, and
// the coefficient-tail FC outputs.
func (p *packedPlan) budgetBits(i int) (float64, bool) {
	switch {
	case i < p.prefix-1:
		return p.convBudgetBits, true
	case i == p.prefix-1:
		return p.poolBudgetBits, true
	case i == p.prefix+1 && p.coeffTail:
		return p.fcBudgetBits, true
	}
	return 0, false
}

// PackedInfo reports the engine's packed-execution decision: whether the
// packed prefix is active, the predicted budgets along it, and (when
// inactive) why the planner fell back to scalar layout. ConvBudgetBits
// describes the rotation-keyed conv's outputs; PoolBudgetBits the
// ciphertexts entering the pool-unpack ECALL — those same conv outputs when
// the plan marks the act+pool pair fused (PlanStepInfo.Fused: one crossing
// whenever the map holds at least fusedStageMinValues values), the
// activation ECALL's fresh re-encryptions otherwise. For an active prefix it
// also reports the tail decision: CoeffTail with the predicted budget of the
// FC outputs, or why pool-unpack keeps emitting scalar ciphertexts.
type PackedInfo struct {
	Active          bool    `json:"active"`
	Reason          string  `json:"reason,omitempty"`
	PrefixSteps     int     `json:"prefix_steps,omitempty"`
	ConvBudgetBits  float64 `json:"conv_budget_bits,omitempty"`
	PoolBudgetBits  float64 `json:"pool_budget_bits,omitempty"`
	CoeffTail       bool    `json:"coeff_tail"`
	CoeffTailReason string  `json:"coeff_tail_reason,omitempty"`
	FCBudgetBits    float64 `json:"fc_budget_bits,omitempty"`
}

// PackedInfo returns the packed-execution plan summary.
func (e *HybridEngine) PackedInfo() PackedInfo {
	if e.packed == nil {
		return PackedInfo{Active: false, Reason: e.packedReason}
	}
	return PackedInfo{
		Active:          true,
		PrefixSteps:     e.packed.prefix,
		ConvBudgetBits:  e.packed.convBudgetBits,
		PoolBudgetBits:  e.packed.poolBudgetBits,
		CoeffTail:       e.packed.coeffTail,
		CoeffTailReason: e.packed.coeffTailReason,
		FCBudgetBits:    e.packed.fcBudgetBits,
	}
}

// InstallGaloisKeys installs an externally generated rotation key set (the
// wire upload path). The keys must match the engine's parameters; they are
// consulted before the engine asks the enclave to generate its own. Every
// client holds the same enclave-issued secret key, so an upload that an
// installed set already covers is acknowledged and dropped: retaining it
// would pin ~21 MB of keys (and as much again in lazily built Shoup tables)
// per connection for nothing.
func (e *HybridEngine) InstallGaloisKeys(gk *he.GaloisKeys) error {
	if e.packed == nil {
		if e.packedReason != "" {
			return fmt.Errorf("core: packed execution unavailable: %s", e.packedReason)
		}
		return fmt.Errorf("core: engine not configured for packed execution (set PackedConv)")
	}
	if gk == nil || !gk.Params.Equal(e.params) {
		return fmt.Errorf("core: galois keys parameter mismatch")
	}
	p := e.packed
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, have := range p.installed {
		if have.Covers(gk) {
			return nil
		}
	}
	p.installed = append(p.installed, gk)
	// Invalidate the per-stride cache so uploaded keys take effect even if
	// an enclave-generated set was already resolved for some stride.
	p.keys = map[int]*he.GaloisKeys{}
	return nil
}

// galoisKeysFor resolves the key set covering the rotation steps of one
// slot stride: an installed (uploaded) set that contains every step wins;
// otherwise the enclave generates one, and the result is cached per stride.
func (e *HybridEngine) galoisKeysFor(stride int) (*he.GaloisKeys, error) {
	p := e.packed
	p.mu.Lock()
	defer p.mu.Unlock()
	if gk, ok := p.keys[stride]; ok {
		return gk, nil
	}
	steps := p.rotationSteps(stride)
	for _, gk := range p.installed {
		covers := true
		for _, s := range steps {
			if !gk.Contains(s) {
				covers = false
				break
			}
		}
		if covers {
			p.keys[stride] = gk
			return gk, nil
		}
	}
	gk, err := e.svc.GaloisKeys(steps, p.baseBits)
	if err != nil {
		return nil, fmt.Errorf("core: acquiring galois keys for stride %d: %w", stride, err)
	}
	p.keys[stride] = gk
	return gk, nil
}

// runPackedConv convolves slot-packed channel ciphertexts: one hoisted
// rotation per window tap, then per output channel one weighted sum of each
// input channel's K² rotations plus the bias (a constant-coefficient
// plaintext is constant across slots, so the scalar bias encoding carries
// over unchanged). stride is the slot row stride — the original image
// width, which output positions keep.
func (e *HybridEngine) runPackedConv(s *planStep, in []*he.Ciphertext, h, w, stride int, gk *he.GaloisKeys) ([]*he.Ciphertext, int, int, error) {
	q := s.conv
	if len(in) != q.InC {
		return nil, 0, 0, fmt.Errorf("packed conv input %d cts != %d channels", len(in), q.InC)
	}
	if h < q.K || w < q.K {
		return nil, 0, 0, fmt.Errorf("packed conv window %d exceeds %dx%d map", q.K, h, w)
	}
	oh, ow := h-q.K+1, w-q.K+1
	taps := make([]int, 0, q.K*q.K)
	for ky := 0; ky < q.K; ky++ {
		for kx := 0; kx < q.K; kx++ {
			taps = append(taps, ky*stride+kx)
		}
	}
	out := make([]*he.Ciphertext, q.OutC)
	for o := range out {
		out[o] = he.NewCiphertext(e.params, 2)
	}
	for i := 0; i < q.InC; i++ {
		rots, err := e.eval.RotateHoisted(in[i], taps, gk)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("packed conv channel %d: %w", i, err)
		}
		for o := 0; o < q.OutC; o++ {
			kernel := q.W[(o*q.InC+i)*len(taps) : (o*q.InC+i+1)*len(taps)]
			if err := e.eval.WeightedSumInto(out[o], rots, kernel); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	for o := range out {
		if err := e.eval.AddPlainInto(out[o], s.bias[o]); err != nil {
			return nil, 0, 0, err
		}
	}
	return out, oh, ow, nil
}

// runPackedPool hands the packed feature map to the enclave's pool-unpack
// ECALL, which mean-pools it in plaintext — after applying the step's
// activation when the pair runs fused, in which case the map is the conv
// output — and re-encrypts the pooled map in channel-major order: as one
// coefficient-packed ciphertext when the plan chose the coefficient tail, as
// scalar ciphertexts — the point where the packed prefix rejoins the scalar
// plan — otherwise.
func (e *HybridEngine) runPackedPool(ctx context.Context, s *planStep, in []*he.Ciphertext, c, h, w, stride int, fused bool) ([]*he.Ciphertext, int, int, error) {
	k := s.window
	if len(in) != c {
		return nil, 0, 0, fmt.Errorf("packed pool input %d cts != %d channels", len(in), c)
	}
	if h%k != 0 || w%k != 0 {
		return nil, 0, 0, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	op := NonlinearOp{
		Kind:     OpPoolUnpack,
		Divisor:  uint64(k * k),
		Geometry: Geometry{Channels: c, Height: h, Width: w, Window: k},
		Lanes:    stride,
		CoeffOut: e.packed.coeffTail,
	}
	if fused {
		op.Act, op.InScale, op.OutScale = int(s.act), s.actInScale, e.cfg.ActScale
	}
	out, err := e.caller.Nonlinear(ctx, op, in)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, h / k, w / k, nil
}
