package core

import (
	"context"
	"fmt"
	"sort"
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
//   - Activation: element-wise, so the existing SIMD enclave path applies
//     unchanged (a fixed slot permutation commutes with element-wise ops).
//   - Pooling: the k² window offsets are rotations too; the enclave's
//     pool-unpack ECALL divides the window sums and re-encrypts the pooled
//     map for the tail of the plan.
//   - Tail: when the prefix is followed by flatten → FC and the pooled map
//     fits one plaintext, pool-unpack returns ONE coefficient-packed
//     ciphertext and the FC runs as one plaintext product per output
//     (coefftail.go). Otherwise it returns one scalar ciphertext per
//     pooled value and the scalar plan's steps take over.
//
// The integer arithmetic mod t is identical to the scalar layout's, so the
// packed pipeline is bit-exact against the scalar oracle; only the
// ciphertext count and the noise path (key-switch terms instead of
// per-pixel fresh encryptions, one plaintext product instead of a weighted
// sum) change.

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
	// poolK is the mean-pool window of the prefix's pool step.
	poolK int
	// baseBits is the Galois key decomposition base for this plan.
	baseBits int
	// convBudgetBits/poolBudgetBits are the static accountant's predicted
	// remaining budgets for the packed path (the scalar plan's predictions
	// do not apply: rotations add key-switch noise).
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

// packedPrefix returns how many leading steps run packed (0 for no plan).
func packedPrefix(p *packedPlan) int {
	if p == nil {
		return 0
	}
	return p.prefix
}

// rotationSteps derives the minimal rotation set for one slot stride: the
// union of the conv window tap offsets and the pool window offsets, minus
// the identity. Pool offsets {dy·stride + dx : dy, dx < k} are a subset of
// the conv tap set whenever k ≤ K, so the paper CNN needs K²−1 keys total.
func (p *packedPlan) rotationSteps(stride int) []int {
	set := map[int]struct{}{}
	for ky := 0; ky < p.conv.K; ky++ {
		for kx := 0; kx < p.conv.K; kx++ {
			set[ky*stride+kx] = struct{}{}
		}
	}
	for dy := 0; dy < p.poolK; dy++ {
		for dx := 0; dx < p.poolK; dx++ {
			set[dy*stride+dx] = struct{}{}
		}
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// planPacked decides whether the model's leading steps can run on packed
// ciphertexts under cfg, returning the plan or a human-readable reason for
// falling back to the scalar layout. Requirements: a batching-capable
// plaintext modulus, a [conv, act, pool] prefix with stride-1 convolution
// and mean pooling, and positive predicted noise budget through the
// rotation-keyed conv and pool kernels.
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
	// of the fresh upload, the conv output is a weighted sum of those
	// copies plus a bias, and the pool sums k² rotated copies of the fresh
	// activation output. Both bounds must stay positive or the enclave
	// would refresh garbage.
	convNoise := params.FreshNoiseBound().KeySwitch(baseBits).
		WeightedSum(float64(conv.MaxKernelL1()), conv.InC*conv.K*conv.K).AddPlain()
	if convNoise.Exhausted() {
		return nil, fmt.Sprintf("packed conv noise bound exhausted (%.1f bits; lower WeightScale)", convNoise.BudgetBits())
	}
	k := pool.window
	poolNoise := params.FreshNoiseBound().KeySwitch(baseBits).WeightedSum(float64(k*k), k*k)
	if poolNoise.Exhausted() {
		return nil, fmt.Sprintf("packed pool noise bound exhausted (%.1f bits)", poolNoise.BudgetBits())
	}
	p := &packedPlan{
		prefix:         3,
		conv:           conv,
		poolK:          k,
		baseBits:       baseBits,
		convBudgetBits: convNoise.BudgetBits(),
		poolBudgetBits: poolNoise.BudgetBits(),
		keys:           map[int]*he.GaloisKeys{},
	}
	p.fcBudgetBits, p.coeffTailReason = planCoeffTail(params, steps, p.prefix)
	p.coeffTail = p.coeffTailReason == ""
	return p, ""
}

// budgetBits returns the packed path's prediction for plan step i when it
// differs from the scalar plan's (rotations add key-switch noise; the
// coefficient tail multiplies one fresh ciphertext): the conv output and
// the activation that refreshes it, the pool sums, and the coefficient-tail
// FC outputs.
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
// packed prefix is active, the predicted budgets through its rotation-keyed
// kernels, and (when inactive) why the planner fell back to scalar layout.
// For an active prefix it also reports the tail decision: CoeffTail with the
// predicted budget of the FC outputs, or why pool-unpack keeps emitting
// scalar ciphertexts.
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
// consulted before the engine asks the enclave to generate its own.
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
// rotation per window tap, then K²·InC whole-ciphertext scalar
// multiply-adds per output channel plus the bias (a constant-coefficient
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
			for tap, ky := 0, 0; ky < q.K; ky++ {
				for kx := 0; kx < q.K; kx, tap = kx+1, tap+1 {
					wv := q.W[((o*q.InC+i)*q.K+ky)*q.K+kx]
					if wv == 0 {
						continue
					}
					if err := e.eval.MulScalarAddInto(out[o], rots[tap], e.scalar.EncodeValue(wv)); err != nil {
						return nil, 0, 0, err
					}
				}
			}
		}
	}
	for o := range out {
		if err := e.eval.AddPlainInto(out[o], s.convBias[o]); err != nil {
			return nil, 0, 0, err
		}
	}
	return out, oh, ow, nil
}

// runPackedPool sums each k×k window with rotations and hands the sums to
// the enclave's pool-unpack ECALL, which divides and re-encrypts the pooled
// map in channel-major order: as one coefficient-packed ciphertext when the
// plan chose the coefficient tail, as scalar ciphertexts — the point where
// the packed prefix rejoins the scalar plan — otherwise.
func (e *HybridEngine) runPackedPool(ctx context.Context, s *planStep, in []*he.Ciphertext, c, h, w, stride int, gk *he.GaloisKeys) ([]*he.Ciphertext, int, int, error) {
	k := s.window
	if len(in) != c {
		return nil, 0, 0, fmt.Errorf("packed pool input %d cts != %d channels", len(in), c)
	}
	if h%k != 0 || w%k != 0 {
		return nil, 0, 0, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	offs := make([]int, 0, k*k)
	for dy := 0; dy < k; dy++ {
		for dx := 0; dx < k; dx++ {
			offs = append(offs, dy*stride+dx)
		}
	}
	sums := make([]*he.Ciphertext, c)
	for ch, ct := range in {
		rots, err := e.eval.RotateHoisted(ct, offs, gk)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("packed pool channel %d: %w", ch, err)
		}
		acc := rots[0]
		for _, r := range rots[1:] {
			if acc, err = e.eval.Add(acc, r); err != nil {
				return nil, 0, 0, err
			}
		}
		sums[ch] = acc
	}
	op := NonlinearOp{
		Kind:     OpPoolUnpack,
		Divisor:  uint64(k * k),
		Geometry: Geometry{Channels: c, Height: h, Width: w, Window: k},
		Lanes:    stride,
		CoeffOut: e.packed.coeffTail,
	}
	out, err := e.caller.Nonlinear(ctx, op, sums)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, h / k, w / k, nil
}
