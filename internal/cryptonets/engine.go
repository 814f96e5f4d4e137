package cryptonets

import (
	"fmt"
	"math/big"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/nn"
)

// stepKind enumerates pipeline stages.
type stepKind int

const (
	stepConv stepKind = iota + 1
	stepSquare
	stepSumPool
	stepFC
	stepFlatten
)

// planStep is one stage of the pure-HE pipeline.
type planStep struct {
	kind   stepKind
	conv   *nn.QuantizedConv
	fc     *nn.QuantizedFC
	window int
}

// Engine runs CryptoNets-style inference: all layers homomorphic, one pass
// per CRT modulus. The supported layer sequence is Conv2D, Square
// activation, SumPool, Flatten, FullyConnected.
type Engine struct {
	cfg    Config
	params []he.Parameters
	evals  []*he.Evaluator
	scals  []*encoding.ScalarEncoder
	eks    []*he.EvaluationKeys
	steps  []*planStep
	// maxRef bounds the exact output magnitude, for CRT range validation.
	maxRef *big.Int
}

// NewEngine plans the baseline execution of model with the server-side
// evaluation keys.
func NewEngine(model *nn.Network, cfg Config, evalKeys *EvalKeys) (*Engine, error) {
	if evalKeys == nil || len(evalKeys.EKs) != len(cfg.Moduli) {
		return nil, fmt.Errorf("cryptonets: evaluation keys missing or mismatched")
	}
	params := evalKeys.Params
	e := &Engine{cfg: cfg, params: params, eks: evalKeys.EKs}
	for _, p := range params {
		ev, err := he.NewEvaluator(p)
		if err != nil {
			return nil, err
		}
		sc, err := encoding.NewScalarEncoder(p)
		if err != nil {
			return nil, err
		}
		e.evals = append(e.evals, ev)
		e.scals = append(e.scals, sc)
	}

	maxMag := new(big.Int).SetUint64(cfg.PixelScale)
	// scale tracks the fixed-point scale of the integer activations so
	// biases land on the right scale at each layer.
	scale := float64(cfg.PixelScale)
	for i, l := range model.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			q, err := nn.QuantizeConv(v, float64(cfg.WeightScale), scale)
			if err != nil {
				return nil, err
			}
			e.steps = append(e.steps, &planStep{kind: stepConv, conv: q})
			maxMag = bigConvBound(q, maxMag)
			scale *= float64(cfg.WeightScale)
		case *nn.Activation:
			if v.Kind != nn.Square {
				return nil, fmt.Errorf("cryptonets: layer %d: pure HE supports only the Square activation, got %s (use the hybrid engine for %s)", i, v.Kind, v.Kind)
			}
			e.steps = append(e.steps, &planStep{kind: stepSquare})
			maxMag.Mul(maxMag, maxMag)
			scale *= scale
		case *nn.Pool2D:
			if v.Kind != nn.SumPool {
				return nil, fmt.Errorf("cryptonets: layer %d: pure HE supports only the scaled mean-pool (SumPool), got %s", i, v.Kind)
			}
			e.steps = append(e.steps, &planStep{kind: stepSumPool, window: v.K})
			maxMag.Mul(maxMag, big.NewInt(int64(v.K*v.K)))
		case *nn.Flatten:
			e.steps = append(e.steps, &planStep{kind: stepFlatten})
		case *nn.FullyConnected:
			q, err := nn.QuantizeFC(v, float64(cfg.WeightScale), scale)
			if err != nil {
				return nil, err
			}
			e.steps = append(e.steps, &planStep{kind: stepFC, fc: q})
			maxMag = bigFCBound(q, maxMag)
			scale *= float64(cfg.WeightScale)
		default:
			return nil, fmt.Errorf("cryptonets: unsupported layer %T at %d", l, i)
		}
	}
	e.maxRef = maxMag
	// Exact CRT recovery requires 2*maxRef < prod(moduli).
	doubled := new(big.Int).Lsh(maxMag, 1)
	if doubled.Cmp(cfg.CRTRange()) >= 0 {
		return nil, fmt.Errorf("cryptonets: worst-case output magnitude %v exceeds CRT range %v; add moduli or lower scales",
			maxMag, cfg.CRTRange())
	}
	// The int64 reference pipeline must not overflow.
	if maxMag.BitLen() > 62 {
		return nil, fmt.Errorf("cryptonets: worst-case magnitude needs %d bits; lower the scales", maxMag.BitLen())
	}
	return e, nil
}

func bigConvBound(q *nn.QuantizedConv, maxIn *big.Int) *big.Int {
	worst := new(big.Int)
	for o := 0; o < q.OutC; o++ {
		sum := new(big.Int).SetInt64(absInt64(q.B[o]))
		for i := 0; i < q.InC; i++ {
			for ky := 0; ky < q.K; ky++ {
				for kx := 0; kx < q.K; kx++ {
					term := new(big.Int).SetInt64(absInt64(q.WAt(o, i, ky, kx)))
					term.Mul(term, maxIn)
					sum.Add(sum, term)
				}
			}
		}
		if sum.Cmp(worst) > 0 {
			worst = sum
		}
	}
	return worst
}

func bigFCBound(q *nn.QuantizedFC, maxIn *big.Int) *big.Int {
	worst := new(big.Int)
	for o := 0; o < q.Out; o++ {
		sum := new(big.Int).SetInt64(absInt64(q.B[o]))
		for _, w := range q.W[o*q.In : (o+1)*q.In] {
			term := new(big.Int).SetInt64(absInt64(w))
			term.Mul(term, maxIn)
			sum.Add(sum, term)
		}
		if sum.Cmp(worst) > 0 {
			worst = sum
		}
	}
	return worst
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Infer runs the full pure-HE pipeline over every modulus instance,
// returning per-modulus encrypted logits for the client's DecryptCRT.
func (e *Engine) Infer(img *CipherImage) ([][]*he.Ciphertext, error) {
	if img == nil {
		return nil, fmt.Errorf("cryptonets: nil cipher image")
	}
	if len(img.CTs) != len(e.params) {
		return nil, fmt.Errorf("cryptonets: image encrypted under %d moduli, engine has %d", len(img.CTs), len(e.params))
	}
	out := make([][]*he.Ciphertext, len(e.params))
	for m := range e.params {
		logits, err := e.inferModulus(m, img.CTs[m], img.Channels, img.Height, img.Width)
		if err != nil {
			return nil, fmt.Errorf("cryptonets: modulus %d (t=%d): %w", m, e.params[m].T, err)
		}
		out[m] = logits
	}
	return out, nil
}

// InferModulus runs one modulus instance (exposed for benchmarking a
// single pass).
func (e *Engine) InferModulus(m int, cts []*he.Ciphertext, c, h, w int) ([]*he.Ciphertext, error) {
	return e.inferModulus(m, cts, c, h, w)
}

func (e *Engine) inferModulus(m int, in []*he.Ciphertext, c, h, w int) ([]*he.Ciphertext, error) {
	cts := in
	eval, scal := e.evals[m], e.scals[m]
	var err error
	for i, s := range e.steps {
		// The linear layers are the shared scalar kernels on one worker: the
		// baseline stays the paper's single-threaded pipeline.
		switch s.kind {
		case stepConv:
			cts, h, w, err = linear.Conv(eval, s.conv, linear.EncodeBias(scal, s.conv.B), cts, c, h, w, 1)
			c = s.conv.OutC
		case stepSquare:
			cts, err = e.runSquare(m, cts)
		case stepSumPool:
			cts, h, w, err = linear.WindowSum(eval, cts, c, h, w, s.window, 1)
		case stepFlatten:
			// no-op on the flat slice
		case stepFC:
			cts, err = linear.FC(eval, s.fc, linear.EncodeBias(scal, s.fc.B), cts, 1)
			c, h, w = len(cts), 1, 1
		}
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return cts, nil
}

// runSquare is the polynomial activation: ct×ct followed by
// relinearization, the EncryptSigmoid path of Fig. 5.
func (e *Engine) runSquare(m int, in []*he.Ciphertext) ([]*he.Ciphertext, error) {
	eval := e.evals[m]
	out := make([]*he.Ciphertext, len(in))
	for i, ct := range in {
		sq, err := eval.Square(ct)
		if err != nil {
			return nil, fmt.Errorf("square %d: %w", i, err)
		}
		if out[i], err = eval.Relinearize(sq, e.eks[m]); err != nil {
			return nil, fmt.Errorf("relinearize %d: %w", i, err)
		}
	}
	return out, nil
}

// ReferenceForward runs the exact integer pipeline in plaintext; encrypted
// results must CRT-reconstruct to exactly these values.
func (e *Engine) ReferenceForward(img *nn.Tensor) ([]int64, error) {
	vals := nn.QuantizeImage(img, float64(e.cfg.PixelScale))
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	for i, s := range e.steps {
		switch s.kind {
		case stepConv:
			out, oh, ow, err := s.conv.Forward(vals, h, w)
			if err != nil {
				return nil, fmt.Errorf("cryptonets: reference step %d: %w", i, err)
			}
			vals, c, h, w = out, s.conv.OutC, oh, ow
		case stepSquare:
			for j, v := range vals {
				vals[j] = v * v
			}
		case stepSumPool:
			k := s.window
			oh, ow := h/k, w/k
			out := make([]int64, c*oh*ow)
			for ch := 0; ch < c; ch++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var sum int64
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								sum += vals[(ch*h+oy*k+ky)*w+ox*k+kx]
							}
						}
						out[(ch*oh+oy)*ow+ox] = sum
					}
				}
			}
			vals, h, w = out, oh, ow
		case stepFlatten:
		case stepFC:
			out, err := s.fc.Forward(vals)
			if err != nil {
				return nil, fmt.Errorf("cryptonets: reference step %d: %w", i, err)
			}
			vals = out
			c, h, w = len(vals), 1, 1
		}
	}
	return vals, nil
}
