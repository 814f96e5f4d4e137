package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// PoolStrategy selects where pooling happens (§VI-D).
type PoolStrategy int

// Pooling strategies.
const (
	// PoolAuto leaves the choice to the planner. A pool directly behind an
	// enclave activation joins it in one ECALL whatever the window (see
	// planStep.fused): the map is already plaintext inside the enclave, so
	// the fused stage costs N decrypts + N/k² encrypts where either paper
	// strategy behind a separate activation costs N + N/k² of each. A pool
	// behind a linear layer follows the paper's crossover rule: SGXPool for
	// windows smaller than PoolCrossoverWindow, SGXDiv otherwise. Every
	// whole-map crossing chosen here — the fused stage, SGXPool — carries a
	// scalar-layout map coefficient-packed, as many values per ciphertext as
	// the noise accountant clears (planStep.coeffIn), and hands an FC behind
	// it the pooled map as one ciphertext (planStep.coeffTail).
	PoolAuto PoolStrategy = iota + 1
	// PoolSGXDiv computes window sums homomorphically outside the enclave
	// and only divides inside ("SGXDiv"). Explicit strategies are the
	// paper's measured two-ECALL pipelines: they never fuse and cross one
	// value per ciphertext.
	PoolSGXDiv
	// PoolSGXPool sends the whole feature map into the enclave ("SGXPool").
	PoolSGXPool
)

// fusedStageMinValues is the smallest feature map, in values, over which a
// planned act+pool pair shares one ECALL; a smaller map keeps the two-call
// sequence. One rule for every layout: a scalar or lane map holds one value
// per ciphertext, a slot-packed map c·h·w values in c ciphertexts. It is
// scope, not a crossover: the arithmetic favours fusing at every size. Its
// one remaining reason is the benchmark's toy-model trace test, which
// expects a core.enclave.sigmoid span on a 72-value map (on the packed
// workloads too) under the default plan. Remove it when the benchmark test
// may change.
const fusedStageMinValues = 256

// PoolCrossoverWindow is the window size at which SGXDiv overtakes SGXPool
// in §VI-D: "choose SGXPool when the window size is less than 3 and select
// SGXDiv when it is larger".
const PoolCrossoverWindow = 3

// ChoosePoolStrategy applies the crossover rule to a window size.
func ChoosePoolStrategy(window int) PoolStrategy {
	if window < PoolCrossoverWindow {
		return PoolSGXPool
	}
	return PoolSGXDiv
}

// Config tunes the hybrid engine's fixed-point pipeline.
type Config struct {
	// PixelScale quantizes input pixels in [0, 1] (255 recovers the
	// MNIST grey levels of §VII).
	PixelScale uint64
	// WeightScale quantizes model weights.
	WeightScale uint64
	// ActScale is the fixed-point scale of enclave-computed activations.
	ActScale uint64
	// Pool selects the pooling strategy.
	Pool PoolStrategy
	// SingleECalls switches activation calls to one ECALL per value — the
	// EncryptSGX(single) control group of Fig. 8.
	SingleECalls bool
	// SIMD runs the pipeline over slot-packed ciphertexts: one engine pass
	// processes a whole batch of images (§VIII). Requires a
	// batching-capable plaintext modulus (prime t ≡ 1 mod 2n) and images
	// encrypted with Client.EncryptImageBatch.
	SIMD bool
	// Workers parallelizes the homomorphic linear layers (and the coefficient
	// fold in front of a pool crossing) across goroutines:
	// 0 or 1 = sequential (keeps timings comparable to the paper's
	// single-threaded SEAL runs), -1 = one per CPU, n > 1 = exactly n.
	// Enclave stages (one ECALL per activation, pool, or fused
	// activation+pool pair) remain batched and sequential either way.
	Workers int
	// PackedConv enables the rotation-keyed packed execution prefix for
	// images encrypted with Client.EncryptImagePacked: whole feature maps
	// live in one ciphertext per channel, convolution runs as hoisted Galois
	// rotations, and the enclave's pool-unpack ECALL activates and pools the
	// map in plaintext and rejoins the scalar plan. Requires a
	// batching-capable plaintext modulus and a conv → act → pool model prefix
	// with enough noise budget for the key-switched path; when any
	// requirement fails the engine records the reason (PackedInfo) and packed
	// images are rejected, while scalar images always keep the scalar layout.
	PackedConv bool
}

// DefaultConfig returns scales tuned for the Fig. 7 CNN at the n=2048
// parameter tier. The fully connected layer homomorphically sums 864
// weighted fresh ciphertexts, so the scales are sized to keep even the
// worst-case (coherently aligned) noise below the decryption threshold
// q/(2t): with t = 2^25, WeightScale 32 and ActScale 256 the FC segment
// retains > 4 bits of budget in the worst case while the integer pipeline
// stays exact (max |value| = 864 * 48 * 256 < t/2).
func DefaultConfig() Config {
	return Config{
		PixelScale:  255,
		WeightScale: 32,
		ActScale:    256,
		Pool:        PoolAuto,
	}
}

// planStep is one scheduled stage of the hybrid pipeline.
type planStep struct {
	kind stepKind
	// label names the step for profiling and per-layer metrics
	// ("03_act"); stable across requests so series aggregate.
	label string
	// predBudgetBits is the static noise accountant's conservative
	// prediction of the remaining budget of this step's ciphertexts: for
	// linear steps, the budget of the outputs; for enclave steps (act,
	// pool), the budget of the ciphertexts *entering* the refresh — the
	// value directly comparable to the budget the enclave measures. A fused
	// activation carries the budget of the map it passes on; a pool whose
	// crossing is coefficient-packed (coeffIn) the budget after packing.
	predBudgetBits float64

	conv *nn.QuantizedConv
	fc   *nn.QuantizedFC
	// fcRowOps holds one whole-row operand per FC output for the coefficient
	// tail (nil unless a plan chose it for this step); built by EncodeWeights.
	fcRowOps []*he.PlainOperand
	// bias holds the conv or FC step's biases pre-encoded as plaintexts
	// (built by EncodeWeights). Weights need no encoding: the scalar kernels
	// multiply them in as constants.
	bias []*he.Plaintext

	act    nn.ActKind
	window int
	pool   nn.PoolKind

	// fused marks the two halves of an enclave stage the planner merged
	// into one ECALL, in every layout. The act step issues no ECALL; the pool
	// step behind it sends the whole pre-activation map (as pool_full,
	// pool_max or, slot-packed, pool_unpack) with act and actInScale next to
	// its geometry, and the enclave activates, then pools, the decrypted
	// integers. Exactness needs no new check: the planner already bounds the
	// activation's output below t/2, so the mod-t reduction the skipped
	// re-encryption would have applied is the identity.
	fused      bool
	actInScale uint64

	// coeffIn is set on a pool step whose whole-map crossing the planner owns
	// (PoolAuto: a fused pair's, or SGXPool by the crossover rule): how many
	// map values share each ciphertext that enters its ECALL in the scalar
	// layout — the largest count the static accountant still clears, 1 when
	// the budget allows nothing more. 0 on every other step: explicit
	// strategies, SGXDiv and SingleECalls cross per value. valueBudgetBits is
	// the step's prediction for a SIMD/lane request, whose slots are in use
	// and whose map therefore crosses per position: the budget before packing.
	coeffIn         int
	valueBudgetBits float64
	// coeffTail is that pool step's output decision (planCoeffTail): the
	// pooled map leaves the ECALL as ONE coefficient-packed ciphertext for the
	// FC two steps on; coeffTailReason says why not. coeffRows marks an FC
	// step some plan — this one or the rotation-packed prefix — feeds that way,
	// so EncodeWeights builds its whole-row operands.
	coeffTail       bool
	coeffTailReason string
	coeffRows       bool

	// foldG is set on a conv step whose map reaches a coefficient-packed
	// crossing unrefreshed: the pool step's coeffIn (> 1), with at most a
	// fused activation between them (foldFloor). For a scalar-layout request
	// the conv then lands directly as the crossing's ⌈values/g⌉ ciphertexts
	// (linear.ConvFold) — behind a fused activation only when the map clears
	// fusedStageMinValues, since below it the activation refreshes per value.
	foldG     int
	foldFloor bool
}

type stepKind int

const (
	stepConv stepKind = iota + 1
	stepAct
	stepPool
	stepFC
	stepFlatten
)

// HybridEngine is the edge server's inference engine (§IV): it executes
// linear layers homomorphically and routes non-polynomial layers through
// the enclave service. It is safe for concurrent Infer calls: per-step
// state is immutable after planning, and weight encoding is guarded by a
// sync.Once.
type HybridEngine struct {
	cfg    Config
	params he.Parameters
	eval   *he.Evaluator
	scalar *encoding.ScalarEncoder
	svc    *EnclaveService

	// caller routes enclave non-linear layers; defaults to svc. Tests and
	// the benchmark's traced run swap in a recording wrapper.
	caller NonlinearCaller

	// metrics, when set, receives per-layer latency samples.
	metrics *stats.Registry

	steps      []*planStep
	encodeOnce sync.Once
	encodeErr  error

	// slotCapable records whether the parameters support CRT slot batching
	// (prime t ≡ 1 mod 2n) — the gate for lane-packed images.
	slotCapable bool

	// folds caches the class tables of the conv steps that land
	// coefficient-packed (planStep.foldG), per input geometry.
	folds foldTables

	// packed is the rotation-keyed packed execution plan (nil when
	// Config.PackedConv is off or the planner fell back); packedReason
	// records why planning declined.
	packed       *packedPlan
	packedReason string

	// outScale is the fixed-point scale of the final logits.
	outScale float64

	// replyD0/replyD1 are the reply rounding (ReplyRounding): how many low
	// bits of c0 and c1 every logit ciphertext leaves off the wire.
	replyD0, replyD1 int
}

// newHybridEngine plans the hybrid execution of model from a filled
// Config. The model's layers must be drawn from {Conv2D, Activation,
// Pool2D, Flatten, FullyConnected}. Weight quantization happens here;
// homomorphic weight encoding happens in EncodeWeights (so Fig. 3 can
// time it separately). The exported surface is NewEngine.
func newHybridEngine(svc *EnclaveService, model *nn.Network, cfg Config) (*HybridEngine, error) {
	if svc == nil {
		return nil, fmt.Errorf("core: nil enclave service")
	}
	if cfg.PixelScale == 0 || cfg.WeightScale == 0 || cfg.ActScale == 0 {
		return nil, fmt.Errorf("core: config scales must be non-zero")
	}
	if cfg.Pool == 0 {
		cfg.Pool = PoolAuto
	}
	params := svc.Params()
	eval, err := he.NewEvaluator(params)
	if err != nil {
		return nil, err
	}
	scalar, err := encoding.NewScalarEncoder(params)
	if err != nil {
		return nil, err
	}
	_, batchErr := encoding.NewBatchEncoder(params)
	if cfg.SIMD && batchErr != nil {
		return nil, fmt.Errorf("core: SIMD engine: %w", batchErr)
	}
	e := &HybridEngine{cfg: cfg, params: params, eval: eval, scalar: scalar, svc: svc, caller: svc,
		slotCapable: batchErr == nil}

	// Plan steps and track the fixed-point scale and worst-case magnitude
	// through the pipeline to validate exactness against t, while the
	// static noise accountant predicts the remaining budget each step
	// leaves (the value the flight report compares against the enclave's
	// measurement).
	scale := float64(cfg.PixelScale)
	maxMag := int64(cfg.PixelScale)
	tHalf := int64(params.T / 2)
	noise := params.FreshNoiseBound()
	actNoise := noise // the bound entering the latest activation step
	for i, l := range model.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			q, err := nn.QuantizeConv(v, float64(cfg.WeightScale), scale)
			if err != nil {
				return nil, err
			}
			noise = noise.WeightedSum(float64(q.MaxKernelL1()), q.InC*q.K*q.K).AddPlain()
			e.steps = append(e.steps, &planStep{kind: stepConv, conv: q, predBudgetBits: noise.BudgetBits()})
			maxMag = q.MaxOutputMagnitude(maxMag)
			scale *= float64(cfg.WeightScale)
		case *nn.FullyConnected:
			q, err := nn.QuantizeFC(v, float64(cfg.WeightScale), scale)
			if err != nil {
				return nil, err
			}
			noise = noise.WeightedSum(float64(q.MaxRowL1()), q.In).AddPlain()
			e.steps = append(e.steps, &planStep{kind: stepFC, fc: q, predBudgetBits: noise.BudgetBits()})
			maxMag = q.MaxOutputMagnitude(maxMag)
			scale *= float64(cfg.WeightScale)
		case *nn.Activation:
			if err := checkActKind(int(v.Kind)); err != nil {
				return nil, fmt.Errorf("core: layer %d: %w", i, err)
			}
			// The recorded prediction is the budget entering the enclave;
			// re-encryption resets the accountant (§IV-E).
			e.steps = append(e.steps, &planStep{kind: stepAct, act: v.Kind, actInScale: uint64(scale), predBudgetBits: noise.BudgetBits()})
			actNoise = noise
			noise = noise.Refresh()
			switch x := float64(maxMag) / scale; v.Kind {
			case nn.Sigmoid, nn.Tanh:
				maxMag = int64(cfg.ActScale)
			case nn.Square:
				// Clamped so an out-of-range square still trips the t/2
				// check below instead of wrapping the conversion.
				maxMag = int64(math.Min(math.Ceil(x*x*float64(cfg.ActScale)), float64(tHalf)))
			default:
				// The ReLU family preserves magnitude up to rescaling.
				maxMag = int64(math.Ceil(x * float64(cfg.ActScale)))
			}
			scale = float64(cfg.ActScale)
		case *nn.Pool2D:
			if v.Kind == nn.SumPool {
				return nil, fmt.Errorf("core: layer %d: the hybrid engine computes true mean pooling; SumPool belongs to the pure-HE baseline", i)
			}
			step := &planStep{kind: stepPool, window: v.K, pool: v.Kind}
			entering := noise
			if n := len(e.steps); n > 0 && e.steps[n-1].kind == stepAct && cfg.Pool == PoolAuto && !cfg.SingleECalls {
				// One crossing for the pair: what enters the enclave is the
				// activation's input, at the scale and budget it recorded.
				act := e.steps[n-1]
				act.fused, step.fused = true, true
				step.act, step.actInScale, entering = act.act, act.actInScale, actNoise
			} else if v.Kind != nn.MaxPool && e.poolStrategyFor(v) == PoolSGXDiv {
				// SGXDiv sums k² ciphertexts homomorphically before the
				// enclave divides: the window sum is what gets decrypted.
				entering = noise.WeightedSum(float64(v.K*v.K), v.K*v.K)
				// The window sum's transient magnitude is also checked
				// for exactness here.
				transient := maxMag * int64(v.K*v.K)
				if transient >= tHalf {
					return nil, fmt.Errorf("core: layer %d: SGXDiv window sum magnitude %d exceeds t/2 = %d", i, transient, tHalf)
				}
			}
			step.predBudgetBits, step.valueBudgetBits = entering.BudgetBits(), entering.BudgetBits()
			if cfg.Pool == PoolAuto && !cfg.SingleECalls && (step.fused || e.poolStrategyFor(v) == PoolSGXPool) {
				// The planner owns this whole-map crossing: the scalar map
				// enters it coefficient-packed, as many values per ciphertext
				// as the accountant clears. (Below the fusion floor a planned
				// pair's pool sees fresh ciphertexts: less noise than bounded.)
				step.coeffIn = maxCoeffPacking(entering, params.N)
				step.predBudgetBits = entering.PackCoefficients(step.coeffIn).BudgetBits()
			}
			e.steps = append(e.steps, step)
			noise = noise.Refresh()
		case *nn.Flatten:
			e.steps = append(e.steps, &planStep{kind: stepFlatten, predBudgetBits: noise.BudgetBits()})
		default:
			return nil, fmt.Errorf("core: unsupported layer %T at %d", l, i)
		}
		if maxMag >= tHalf {
			return nil, fmt.Errorf("core: layer %d (%s): worst-case magnitude %d exceeds t/2 = %d; lower the scales or raise t",
				i, l.Name(), maxMag, tHalf)
		}
	}
	for i, s := range e.steps {
		s.label = fmt.Sprintf("%02d_%s", i, s.kind.String())
	}
	e.outScale = scale
	// The logit routes a reply can carry, as noise bounds: one value per
	// ciphertext through the final steps (scalar requests without a tail,
	// client SIMD batches, the packed prefix without a tail), the enclave's
	// fresh re-encryption (lane demux), and the coefficient tail where one is
	// planned.
	routes := []he.NoiseBound{noise, params.FreshNoiseBound()}
	for i, s := range e.steps {
		if s.coeffIn > 0 {
			var tail he.NoiseBound
			if tail, s.coeffTailReason = planCoeffTail(params, e.steps, i+1); s.coeffTailReason == "" {
				s.coeffTail, e.steps[i+2].coeffRows = true, true
				routes = append(routes, tail)
			}
		}
	}
	for i, s := range e.steps {
		if s.kind != stepConv {
			continue
		}
		next := e.steps[i+1:]
		floor := len(next) > 0 && next[0].kind == stepAct && next[0].fused
		if floor {
			next = next[1:]
		}
		if len(next) > 0 && next[0].kind == stepPool && next[0].coeffIn > 1 {
			s.foldG, s.foldFloor = next[0].coeffIn, floor
		}
	}
	if cfg.PackedConv {
		e.packed, e.packedReason = planPacked(params, e.steps, e.slotCapable)
		if e.packed != nil && e.packed.coeffTail {
			routes = append(routes, e.packed.fcNoise)
		}
	}
	e.replyD0, e.replyD1 = lowestBudget(routes).MaxRound()
	return e, nil
}

// lowestBudget returns the bound with the least predicted budget.
func lowestBudget(bounds []he.NoiseBound) he.NoiseBound {
	low := bounds[0]
	for _, b := range bounds[1:] {
		if b.BudgetBits() < low.BudgetBits() {
			low = b
		}
	}
	return low
}

// ReplyRounding returns how many low bits of c0 (d0) and of c1 (d1) every
// logit ciphertext of a reply leaves off the wire
// (WriteCiphertextBatchPacked). It is fixed at plan time: the largest
// d0 + d1 that keeps at least one bit of predicted budget
// (he.NoiseBound.Round) on the lowest-budget logit route this engine can
// serve, so every route decrypts exactly after the client lifts the
// coefficients back.
func (e *HybridEngine) ReplyRounding() (d0, d1 int) { return e.replyD0, e.replyD1 }

// maxCoeffPacking returns the largest g ≤ n for which the sum of g monomial-
// shifted ciphertexts, each bounded by entering, still has predicted budget
// left — how many map values the planner lets share one ciphertext across a
// whole-map pool crossing. 1, the per-value batch, when the budget allows
// nothing more.
func maxCoeffPacking(entering he.NoiseBound, n int) int {
	// The packed bound grows with g, so bisect; lo fits, or is 1.
	lo, hi := 1, n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if entering.PackCoefficients(mid).Exhausted() {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo
}

// PlanStepInfo describes one planned step of the hybrid pipeline for
// reporting: its position, kind, metric label, and the static accountant's
// predicted remaining noise budget (see planStep.predBudgetBits for which
// ciphertexts the prediction describes). PackedBudgetBits is set on the
// steps whose prediction differs for slot-packed images when a packed plan is
// active: the rotation-keyed conv's outputs (on the conv and on the act they
// enter), the ciphertexts entering pool_unpack (see PackedInfo.PoolBudgetBits)
// and the coefficient-tail FC's outputs. Fused marks both halves of an
// activation+pool pair that shares one ECALL: the act step issues none, the
// pool step's ECALL applies the activation first. CoeffIn, CoeffTail and
// CoeffTailReason report the coefficient-packed crossing of a pool step whose
// whole-map ECALL the planner owns, for scalar-layout images: how many map
// values share each ciphertext entering it (1: the budget allows only the
// per-value batch; 0: not such a step) — PredictedBudgetBits is then the
// budget after that packing — and whether the pooled map leaves as one
// coefficient-packed ciphertext for the FC behind it, or why not. CoeffOut is
// set on a conv step whose scalar-layout outputs land directly as that
// crossing's ciphertexts, CoeffOut values each (behind a fused activation,
// for maps at or above the fusion floor).
type PlanStepInfo struct {
	Step                int      `json:"step"`
	Kind                string   `json:"kind"`
	Label               string   `json:"label"`
	PredictedBudgetBits float64  `json:"predicted_budget_bits"`
	PackedBudgetBits    *float64 `json:"packed_budget_bits,omitempty"`
	Fused               bool     `json:"fused,omitempty"`
	CoeffIn             int      `json:"coeff_in,omitempty"`
	CoeffTail           bool     `json:"coeff_tail,omitempty"`
	CoeffTailReason     string   `json:"coeff_tail_reason,omitempty"`
	CoeffOut            int      `json:"coeff_out,omitempty"`
}

// PlanInfo returns the planned steps with their predicted noise budgets —
// what examples and operators print before any ciphertext exists.
func (e *HybridEngine) PlanInfo() []PlanStepInfo {
	out := make([]PlanStepInfo, len(e.steps))
	for i, s := range e.steps {
		out[i] = PlanStepInfo{Step: i, Kind: s.kind.String(), Label: s.label, PredictedBudgetBits: s.predBudgetBits, Fused: s.fused,
			CoeffIn: s.coeffIn, CoeffTail: s.coeffTail, CoeffTailReason: s.coeffTailReason, CoeffOut: s.foldG}
		if e.packed != nil {
			if bits, ok := e.packed.budgetBits(i); ok {
				out[i].PackedBudgetBits = &bits
			}
		}
	}
	return out
}

func (e *HybridEngine) poolStrategyFor(p *nn.Pool2D) PoolStrategy {
	if p.Kind == nn.MaxPool {
		return PoolSGXPool // max pooling can only run inside the enclave
	}
	switch e.cfg.Pool {
	case PoolSGXDiv:
		return PoolSGXDiv
	case PoolSGXPool:
		return PoolSGXPool
	default:
		return ChoosePoolStrategy(p.K)
	}
}

// OutScale returns the fixed-point scale of the logits Infer produces.
func (e *HybridEngine) OutScale() float64 { return e.outScale }

// SetNonlinearCaller routes the engine's enclave non-linear layers through
// c instead of calling the enclave service directly (nil restores the
// service) — the hook tests and the benchmark's traced run use to record
// the ECALLs an inference makes. Call it before serving traffic; it is not
// safe to swap mid-inference.
func (e *HybridEngine) SetNonlinearCaller(c NonlinearCaller) {
	if c == nil {
		c = e.svc
	}
	e.caller = c
}

// SetMetrics attaches a registry that receives per-layer latency samples
// ("engine.layer.<kind>_ms") from every inference. Call before serving.
func (e *HybridEngine) SetMetrics(reg *stats.Registry) { e.metrics = reg }

// EncodeWeights encodes every quantized weight and bias into the
// homomorphic plaintext space — the §IV-B preparation step Fig. 3 measures.
// It is idempotent and safe under concurrent Infer: the work runs exactly
// once, and every caller observes its error.
func (e *HybridEngine) EncodeWeights() error {
	e.encodeOnce.Do(func() { e.encodeErr = e.encodeAllWeights() })
	return e.encodeErr
}

func (e *HybridEngine) encodeAllWeights() error {
	for _, s := range e.steps {
		switch s.kind {
		case stepConv:
			s.bias = linear.EncodeBias(e.scalar, s.conv.B)
		case stepFC:
			s.bias = linear.EncodeBias(e.scalar, s.fc.B)
			if s.coeffRows {
				if err := e.encodeFCRows(s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// EncodedWeightCount returns how many weight and bias values EncodeWeights
// processes, the x-axis of Fig. 3.
func (e *HybridEngine) EncodedWeightCount() int {
	total := 0
	for _, s := range e.steps {
		switch s.kind {
		case stepConv:
			total += len(s.conv.W) + len(s.conv.B)
		case stepFC:
			total += len(s.fc.W) + len(s.fc.B)
		}
	}
	return total
}

// InferenceResult carries the encrypted logits and their fixed-point scale.
type InferenceResult struct {
	Logits   []*he.Ciphertext
	OutScale float64
}

// Infer runs the hybrid pipeline over an encrypted image.
func (e *HybridEngine) Infer(img *CipherImage) (*InferenceResult, error) {
	return e.InferContext(context.Background(), img)
}

// stepName labels a plan step for metrics.
func (k stepKind) String() string {
	switch k {
	case stepConv:
		return "conv"
	case stepAct:
		return "act"
	case stepPool:
		return "pool"
	case stepFC:
		return "fc"
	case stepFlatten:
		return "flatten"
	default:
		return "step"
	}
}

// InferContext runs the hybrid pipeline over an encrypted image. The
// context is checked between steps and at every enclave boundary, so a
// disconnected client or a server shutdown abandons the inference instead
// of burning enclave transitions on a result nobody will read.
func (e *HybridEngine) InferContext(ctx context.Context, img *CipherImage) (*InferenceResult, error) {
	if img == nil || len(img.CTs) == 0 {
		return nil, fmt.Errorf("core: empty cipher image")
	}
	if img.Scale != e.cfg.PixelScale {
		return nil, fmt.Errorf("core: image scale %d != engine pixel scale %d", img.Scale, e.cfg.PixelScale)
	}
	// Lane-packed images run the same plan in SIMD mode: the linear algebra
	// is slot-wise either way, and the enclave decodes slot vectors instead
	// of constant coefficients. Scalar images keep the engine's configured
	// mode, so one engine serves both encodings.
	simd := e.cfg.SIMD || img.Lanes > 1
	if img.Lanes > 1 && !e.slotCapable {
		return nil, fmt.Errorf("core: image packs %d lanes but plaintext modulus %d is not batching-capable (needs prime t ≡ 1 mod 2n)",
			img.Lanes, e.params.T)
	}
	if img.Lanes > e.params.N {
		return nil, fmt.Errorf("core: image packs %d lanes, exceeding %d slots", img.Lanes, e.params.N)
	}
	// Slot-packed images (one ciphertext per channel) require the packed
	// plan; they are mutually exclusive with lane packing, which assigns
	// slots to images instead of pixels.
	var gk *he.GaloisKeys
	if img.Packed {
		if img.Lanes > 1 {
			return nil, fmt.Errorf("core: image is both slot-packed and lane-packed")
		}
		if e.packed == nil {
			if e.packedReason != "" {
				return nil, fmt.Errorf("core: slot-packed image but packed execution unavailable: %s", e.packedReason)
			}
			return nil, fmt.Errorf("core: slot-packed image but engine not configured for packed execution (set PackedConv)")
		}
		if img.Height*img.Width > e.params.N/2 {
			return nil, fmt.Errorf("core: packed image %dx%d exceeds %d row slots", img.Height, img.Width, e.params.N/2)
		}
		var err error
		if gk, err = e.galoisKeysFor(img.Width); err != nil {
			return nil, err
		}
	}
	if err := e.EncodeWeights(); err != nil {
		return nil, err
	}
	cts := img.CTs
	c, h, w := img.Channels, img.Height, img.Width
	stride := img.Width // slot row stride of the packed layout
	scale := float64(e.cfg.PixelScale)
	r := e.params.Ring()
	// coeffMap is set between a pool step that asked its ECALL for the
	// coefficient-packed output and the FC that consumes it: cts is then ONE
	// ciphertext holding the c·h·w pooled values. folded is set between a
	// conv that landed coefficient-packed and the pool whose crossing it
	// feeds: cts then holds the c·h·w map values g to a ciphertext.
	coeffMap, folded := false, false

	for i, s := range e.steps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: step %d: %w", i, err)
		}
		packedStep := img.Packed && i < e.packed.prefix // a packed image implies a plan
		predBits := s.predBudgetBits
		if simd && s.kind == stepPool {
			predBits = s.valueBudgetBits
		}
		if img.Packed {
			if bits, ok := e.packed.budgetBits(i); ok {
				predBits = bits
			}
		}
		sctx, span := trace.StartSpan(ctx, "layer."+s.kind.String(), "engine")
		span.Arg("step", float64(i)).
			Arg("cts_in", float64(len(cts))).
			Arg("pred_budget_bits", predBits)
		// An FC whose plan built whole-row operands reports which kernel this
		// request ran; the pool in front of it reports its output layout below.
		if s.coeffRows {
			span.Arg("coeff_tail", b2f(coeffMap))
		}
		// Both halves of a pair see the same map (a fused activation passes
		// it on untouched), so they agree on the floor. The floor counts map
		// values, whatever the layout packs into each ciphertext.
		fusedStep := s.fused && c*h*w >= fusedStageMinValues
		if fusedStep {
			span.Arg("fused", 1)
		}
		start := time.Now()
		fwd0, inv0 := r.NTTCounts()
		limb0, crt0 := ring.RNSCounts()
		ks0, hr0 := he.KeySwitchOps(), he.HoistedRotations()
		var err error
		// The pprof label attributes every CPU sample of this step — and of
		// the linear.ParallelFor workers it spawns, which inherit labels — to the
		// layer, so `go tool pprof -tagfocus hesgx_layer=...` decomposes a
		// profile the way the flight report decomposes wall-clock.
		pprof.Do(sctx, pprof.Labels("hesgx_layer", s.label), func(lctx context.Context) {
			switch s.kind {
			case stepConv:
				switch {
				case packedStep:
					cts, h, w, err = e.runPackedConv(s, cts, h, w, stride, gk)
				case s.foldsFor(simd, h, w):
					cts, h, w, err = e.runConvFold(s, cts, c, h, w)
					folded = true
				default:
					cts, h, w, err = linear.Conv(e.eval, s.conv, s.bias, cts, c, h, w, e.effectiveWorkers())
				}
				c = s.conv.OutC
				scale *= float64(e.cfg.WeightScale)
			case stepAct:
				// A fused activation passes the map on untouched: the pool
				// step behind it applies it inside its own ECALL. Otherwise
				// packed feature maps go through the element-wise SIMD
				// enclave path: a fixed slot permutation commutes with
				// element-wise activation, so the batch codec applies.
				if !fusedStep {
					cts, err = e.runActivation(lctx, s, cts, simd || packedStep)
				}
				scale = float64(e.cfg.ActScale)
			case stepPool:
				if packedStep {
					coeffMap = e.packed.coeffTail
					cts, h, w, err = e.runPackedPool(lctx, s, cts, c, h, w, stride, fusedStep)
					span.Arg("coeff_tail", b2f(coeffMap))
				} else {
					if g, tail := s.coeffCrossing(simd); g > 0 {
						coeffMap = tail
						span.Arg("coeff_in", float64(g)).Arg("coeff_tail", b2f(tail))
					}
					cts, h, w, err = e.runPool(lctx, s, cts, c, h, w, simd, fusedStep, folded)
					folded = false
				}
			case stepFlatten:
				// No-op on the flat ciphertext slice.
			case stepFC:
				if coeffMap {
					cts, err = e.runFCCoeff(s, cts, c*h*w, e.effectiveWorkers())
					coeffMap = false
				} else {
					cts, err = linear.FC(e.eval, s.fc, s.bias, cts, e.effectiveWorkers())
				}
				scale *= float64(e.cfg.WeightScale)
				c, h, w = len(cts), 1, 1
			}
		})
		var nttFwd, nttInv uint64
		if s.kind == stepConv || s.kind == stepFC {
			// Per-layer transform counts: zero on the scalar kernels, one
			// forward pair per class and one inverse pair per crossing
			// ciphertext on a conv that lands coefficient-packed, the hoist
			// and per-output inverses on the coefficient tail, the key-switch
			// transforms on the packed conv. The ring's counters
			// are global, so under concurrent inferences a layer's delta
			// includes transforms of overlapping requests — approximate
			// attribution, exact totals.
			fwd1, inv1 := r.NTTCounts()
			nttFwd, nttInv = fwd1-fwd0, inv1-inv0
			span.Arg("ntt_fwd", float64(nttFwd)).Arg("ntt_inv", float64(nttInv))
		}
		// RNS multiplier kernel activity (pure-HE squares route through the
		// modulus chain; hybrid enclave refreshes leave these flat). Same
		// approximate-attribution caveat as the NTT counters above.
		limb1, crt1 := ring.RNSCounts()
		limbMuls, crtExtends := limb1-limb0, crt1-crt0
		if limbMuls > 0 || crtExtends > 0 {
			span.Arg("limb_muls", float64(limbMuls)).Arg("crt_extends", float64(crtExtends))
		}
		// Rotation key-switch activity: non-zero only on the packed conv.
		// Same approximate attribution under concurrency as above.
		ks1, hr1 := he.KeySwitchOps(), he.HoistedRotations()
		ksOps, hoisted := ks1-ks0, hr1-hr0
		if ksOps > 0 {
			span.Arg("keyswitch_ops", float64(ksOps)).Arg("hoisted_rotations", float64(hoisted))
		}
		if err != nil {
			span.Arg("error", 1).End()
			return nil, fmt.Errorf("core: step %d: %w", i, err)
		}
		span.Arg("cts_out", float64(len(cts))).End()
		if e.metrics != nil && s.kind != stepFlatten && !(fusedStep && s.kind == stepAct) {
			e.metrics.ObserveHistogram("engine.layer."+s.kind.String()+"_ms",
				float64(time.Since(start).Microseconds())/1000.0)
			if s.kind == stepConv || s.kind == stepFC {
				e.metrics.Counter("engine.layer." + s.kind.String() + ".ntt_forward").Add(int64(nttFwd))
				e.metrics.Counter("engine.layer." + s.kind.String() + ".ntt_inverse").Add(int64(nttInv))
			}
			if limbMuls > 0 || crtExtends > 0 {
				e.metrics.Counter("engine.layer." + s.kind.String() + ".limb_muls").Add(int64(limbMuls))
				e.metrics.Counter("engine.layer." + s.kind.String() + ".crt_extends").Add(int64(crtExtends))
			}
			if ksOps > 0 {
				e.metrics.Counter("engine.layer." + s.kind.String() + ".keyswitch_ops").Add(int64(ksOps))
				e.metrics.Counter("engine.layer." + s.kind.String() + ".hoisted_rotations").Add(int64(hoisted))
			}
		}
	}
	if e.metrics != nil {
		fwd, inv := r.NTTCounts()
		e.metrics.Gauge("ring.ntt_forward_total").Set(int64(fwd))
		e.metrics.Gauge("ring.ntt_inverse_total").Set(int64(inv))
		polyMiss, centeredMiss := r.PoolMisses()
		e.metrics.Gauge("ring.pool_miss.poly").Set(int64(polyMiss))
		e.metrics.Gauge("ring.pool_miss.centered").Set(int64(centeredMiss))
		limbMuls, crtExtends := ring.RNSCounts()
		e.metrics.Gauge("ring.limb_muls").Set(int64(limbMuls))
		e.metrics.Gauge("ring.crt_extends").Set(int64(crtExtends))
		parTasks, parBusy, parPeak := ring.ParallelCounts()
		e.metrics.Gauge("ring.parallel_tasks").Set(int64(parTasks))
		e.metrics.Gauge("ring.parallel_busy").Set(parBusy)
		e.metrics.Gauge("ring.parallel_peak").Set(parPeak)
		e.metrics.Gauge("ring.rotations").Set(int64(ring.RotationCount()))
		e.metrics.Gauge("he.keyswitch_ops").Set(int64(he.KeySwitchOps()))
		e.metrics.Gauge("he.hoisted_rotations").Set(int64(he.HoistedRotations()))
	}
	return &InferenceResult{Logits: cts, OutScale: scale}, nil
}

// effectiveWorkers resolves the configured worker count.
func (e *HybridEngine) effectiveWorkers() int {
	if e.cfg.Workers < 0 {
		return runtime.NumCPU()
	}
	return e.cfg.Workers
}

// b2f renders a flag as a span argument value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (e *HybridEngine) runActivation(ctx context.Context, s *planStep, in []*he.Ciphertext, simd bool) ([]*he.Ciphertext, error) {
	op := NonlinearOp{
		Kind:     OpActivation,
		SIMD:     simd,
		InScale:  s.actInScale,
		OutScale: e.cfg.ActScale,
		// Carrying the kind in the op (rather than mutating enclave state
		// with SetActivation) keeps concurrent inferences with different
		// activations independent.
		Act: int(s.act),
	}
	if s.act == nn.Sigmoid {
		op = NonlinearOp{Kind: OpSigmoid, SIMD: simd, InScale: s.actInScale, OutScale: e.cfg.ActScale}
	}
	if e.cfg.SingleECalls {
		// The EncryptSGX(single) control of Fig. 8: one ECALL per value.
		out := make([]*he.Ciphertext, len(in))
		for i, ct := range in {
			res, err := e.caller.Nonlinear(ctx, op, []*he.Ciphertext{ct})
			if err != nil {
				return nil, fmt.Errorf("core: single-value activation %d: %w", i, err)
			}
			out[i] = res[0]
		}
		return out, nil
	}
	return e.caller.Nonlinear(ctx, op, in)
}

// coeffCrossing resolves a pool step's planned crossing for one request: how
// many map values share each ciphertext entering the ECALL (0: the planner
// does not own this crossing) and whether the pooled map returns as one
// coefficient-packed ciphertext. A SIMD map's slots carry lanes, so it crosses
// per position — g = 1 of the same routine — and returns per position.
func (s *planStep) coeffCrossing(simd bool) (g int, tail bool) {
	if s.coeffIn > 0 && simd {
		return 1, false
	}
	return s.coeffIn, s.coeffTail
}

// runPool runs a pool step. folded says the conv in front already landed the
// map coefficient-packed at this step's crossing: in then holds ⌈c·h·w/g⌉
// ciphertexts, not one per value.
func (e *HybridEngine) runPool(ctx context.Context, s *planStep, in []*he.Ciphertext, c, h, w int, simd, fused, folded bool) ([]*he.Ciphertext, int, int, error) {
	values, g := c*h*w, 1
	if folded {
		g = s.coeffIn
	}
	if want := (values + g - 1) / g; len(in) != want {
		return nil, 0, 0, fmt.Errorf("pool input %d cts, want %d (%d*%d*%d values, %d per ciphertext)", len(in), want, c, h, w, g)
	}
	k := s.window
	if h%k != 0 || w%k != 0 {
		return nil, 0, 0, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	oh, ow := h/k, w/k
	op := NonlinearOp{SIMD: simd, Geometry: Geometry{Channels: c, Height: h, Width: w, Window: k}}
	if fused {
		// The batch is the activation's input: the enclave activates the
		// decrypted integers, then pools them, in this one ECALL.
		op.Act, op.InScale, op.OutScale = int(s.act), s.actInScale, e.cfg.ActScale
	}
	switch {
	case s.pool == nn.MaxPool:
		op.Kind = OpPoolMax
	case s.fused || e.poolStrategyFor(&nn.Pool2D{Kind: s.pool, K: k}) == PoolSGXPool:
		// A planned pair under the floor still pools the whole map inside:
		// its plan skipped SGXDiv's window-sum magnitude check.
		op.Kind = OpPoolFull
	default: // PoolSGXDiv: homomorphic window sums, enclave division.
		sums, _, _, err := linear.WindowSum(e.eval, in, c, h, w, k, e.effectiveWorkers())
		if err != nil {
			return nil, 0, 0, err
		}
		out, err := e.caller.Nonlinear(ctx, NonlinearOp{Kind: OpPoolDivide, SIMD: simd, Divisor: uint64(k * k)}, sums)
		return out, oh, ow, err
	}
	if g, tail := s.coeffCrossing(simd); g > 0 {
		if !simd {
			op.CoeffIn, op.CoeffOut = g, tail
		}
		if !folded {
			var err error
			if in, err = e.packCoefficients(in, g, e.effectiveWorkers()); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	out, err := e.caller.Nonlinear(ctx, op, in)
	return out, oh, ow, err
}

// foldsFor reports whether this request's conv lands coefficient-packed: a
// planned fold, a scalar-layout request whose slots are free, and — behind a
// fused activation — a map of c·oh·ow values the activation fuses at.
func (s *planStep) foldsFor(simd bool, h, w int) bool {
	q := s.conv
	return s.foldG > 1 && !simd && (!s.foldFloor || q.OutC*q.OutSize(h)*q.OutSize(w) >= fusedStageMinValues)
}

// maxFoldTables bounds how many input geometries the fold cache keeps: the
// model fixes one, and a client sending others must not grow the server by
// a table each.
const maxFoldTables = 4

// foldTables caches linear.ConvFold class tables per (conv step, input
// geometry). built counts tables built, cached or not.
type foldTables struct {
	mu     sync.Mutex
	tables map[foldKey]*linear.ConvFold
	built  int
}

type foldKey struct {
	step    *planStep
	c, h, w int
}

// convFoldFor returns the class table of conv step s over a c×h×w input,
// built on first use and cached under the lock, so concurrent first requests
// build it once.
func (e *HybridEngine) convFoldFor(s *planStep, c, h, w int) (*linear.ConvFold, error) {
	f := &e.folds
	f.mu.Lock()
	defer f.mu.Unlock()
	key := foldKey{s, c, h, w}
	if tab, ok := f.tables[key]; ok {
		return tab, nil
	}
	tab, err := linear.NewConvFold(e.eval, s.conv, s.bias, c, h, w, s.foldG)
	if err != nil {
		return nil, err
	}
	f.built++
	if f.tables == nil {
		f.tables = make(map[foldKey]*linear.ConvFold)
	}
	if len(f.tables) < maxFoldTables {
		f.tables[key] = tab
	}
	return tab, nil
}

// runConvFold computes conv step s over a scalar c×h×w map directly as the
// ⌈values/g⌉ ciphertexts its coefficient-packed crossing takes.
func (e *HybridEngine) runConvFold(s *planStep, in []*he.Ciphertext, c, h, w int) ([]*he.Ciphertext, int, int, error) {
	if len(in) != c*h*w {
		return nil, 0, 0, fmt.Errorf("conv input %d cts (%dx%dx%d)", len(in), c, h, w)
	}
	tab, err := e.convFoldFor(s, c, h, w)
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := tab.Run(e.eval, in, e.effectiveWorkers())
	if err != nil {
		return nil, 0, 0, err
	}
	return out, s.conv.OutSize(h), s.conv.OutSize(w), nil
}

// packCoefficients folds a scalar map into ⌈len/g⌉ coefficient-packed
// ciphertexts: acc += X^(i mod g)·ct_i puts flat value i at coefficient
// i mod g of ciphertext i div g. Multiplying by a monomial is a negacyclic
// shift of the two polynomials — no key, no NTT, noise norm unchanged — so the
// untrusted engine does it itself. g = 1 is the map as it stands, one value
// per ciphertext. A conv's map with g > 1 never comes here — runConvFold
// lands it folded; maps an activation ECALL or an FC returned do.
func (e *HybridEngine) packCoefficients(in []*he.Ciphertext, g, workers int) ([]*he.Ciphertext, error) {
	if g == 1 {
		return in, nil
	}
	out := make([]*he.Ciphertext, (len(in)+g-1)/g)
	err := linear.ParallelFor(len(out), workers, func(o int) error {
		group := in[o*g : min((o+1)*g, len(in))]
		acc := he.NewCiphertext(e.params, group[0].Size())
		for j, ct := range group {
			if err := e.eval.MulMonomialAddInto(acc, ct, j); err != nil {
				return err
			}
		}
		out[o] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReferenceForward runs the identical integer pipeline in plaintext — the
// oracle the encrypted pipeline must match bit-for-bit (the §VII-B accuracy
// claim). It reuses the same quantized weights and the same enclave
// arithmetic (rounded division, float activation, requantization).
func (e *HybridEngine) ReferenceForward(img *nn.Tensor) ([]int64, error) {
	vals := nn.QuantizeImage(img, float64(e.cfg.PixelScale))
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	scale := float64(e.cfg.PixelScale)
	for i, s := range e.steps {
		switch s.kind {
		case stepConv:
			out, oh, ow, err := s.conv.Forward(vals, h, w)
			if err != nil {
				return nil, fmt.Errorf("core: reference step %d: %w", i, err)
			}
			vals, c, h, w = out, s.conv.OutC, oh, ow
			scale *= float64(e.cfg.WeightScale)
		case stepAct:
			applyActivation(s.act, vals, scale, float64(e.cfg.ActScale))
			scale = float64(e.cfg.ActScale)
		case stepPool:
			out, err := referencePool(vals, c, h, w, s.window, s.pool)
			if err != nil {
				return nil, fmt.Errorf("core: reference step %d: %w", i, err)
			}
			vals, h, w = out, h/s.window, w/s.window
		case stepFlatten:
		case stepFC:
			out, err := s.fc.Forward(vals)
			if err != nil {
				return nil, fmt.Errorf("core: reference step %d: %w", i, err)
			}
			vals = out
			scale *= float64(e.cfg.WeightScale)
			c, h, w = len(vals), 1, 1
		}
	}
	return vals, nil
}

func referencePool(vals []int64, c, h, w, k int, kind nn.PoolKind) ([]int64, error) {
	if h%k != 0 || w%k != 0 {
		return nil, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	oh, ow := h/k, w/k
	out := make([]int64, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				if kind == nn.MaxPool {
					best := vals[(ch*h+oy*k)*w+ox*k]
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							if v := vals[(ch*h+oy*k+ky)*w+ox*k+kx]; v > best {
								best = v
							}
						}
					}
					out[(ch*oh+oy)*ow+ox] = best
				} else {
					var sum int64
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							sum += vals[(ch*h+oy*k+ky)*w+ox*k+kx]
						}
					}
					out[(ch*oh+oy)*ow+ox] = divRound(sum, int64(k*k))
				}
			}
		}
	}
	return out, nil
}
