package linear

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hesgx/internal/he"
	"hesgx/internal/nn"
)

// ConvFold is a scalar convolution fused with the coefficient fold behind it.
// Folding the conv's outputs g to a ciphertext — output j at coefficient
// j − o·g of crossing ciphertext o = j div g, as acc += X^(j−o·g)·out_j — is,
// together with the conv, one linear map into R_q:
//
//	C_o = Σ_j X^(j−o·g)·(Σ_t w_{j,t}·ct_{p(j,t)} + Δ·b_j)
//	    = Σ_p ct_p·P_{o,p}(X) + Δ·B_o(X)
//
// where P_{o,p} collects, for input pixel p, the weight each of crossing o's
// outputs gives it, at that output's coefficient (one tap per output and
// pixel), and B_o is the folded bias. Every P_{o,p} is X^s times a kernel K
// whose lowest non-zero coefficient sits at X^0; the pixels of crossing o that
// share K form a class, and Σ_{p∈C} ct_p·X^(s_p)·K = (Σ_{p∈C} X^(s_p)·ct_p)·K.
// So each class costs its monomial folds (key-free negacyclic shifts), one
// forward transform of the fold and one pointwise product against K, and
// each crossing one inverse transform and the bias add. Every step is exact
// arithmetic in R_q, so the result is the same ring element — the same
// ciphertext, coefficient for coefficient — as Conv followed by the fold.
//
// A ConvFold holds the class table for one conv over one input geometry:
// each distinct K once, in evaluation form with its Shoup companion. It is
// immutable after NewConvFold and safe for concurrent Run calls.
type ConvFold struct {
	params  he.Parameters
	inputs  int
	classes []foldClass
	// biases holds B_o, one plaintext per crossing ciphertext.
	biases []*he.Plaintext
	// kernels counts the distinct class kernels the table holds.
	kernels int
}

// foldClass is the input pixels of one crossing whose P_{o,p} share a kernel,
// each with the monomial degree s_p that shifts the kernel onto it.
type foldClass struct {
	crossing int
	kernel   *he.PlainOperand
	pixels   []int
	shifts   []int
}

// foldTerm is one coefficient of a P_{o,p}: weight w at degree e.
type foldTerm struct {
	e int
	w uint64
}

// NewConvFold builds the class table of the quantized conv q over a
// channel-major c×h×w map of scalar ciphertexts whose OutC×oh×ow outputs fold
// g values to a ciphertext. bias holds the per-channel constant-coefficient
// plaintexts EncodeBias builds.
func NewConvFold(eval *he.Evaluator, q *nn.QuantizedConv, bias []*he.Plaintext, c, h, w, g int) (*ConvFold, error) {
	if c != q.InC {
		return nil, fmt.Errorf("conv fold input has %d channels, want inC=%d", c, q.InC)
	}
	if h < q.K || w < q.K {
		return nil, fmt.Errorf("conv fold kernel %d exceeds input %dx%d", q.K, h, w)
	}
	if len(bias) != q.OutC {
		return nil, fmt.Errorf("conv fold has %d biases, want %d", len(bias), q.OutC)
	}
	params := bias[0].Params
	n, t := params.N, int64(params.T)
	if g < 1 || g > n {
		return nil, fmt.Errorf("conv fold of %d values per ciphertext outside [1, %d]", g, n)
	}
	for o, b := range bias {
		for _, v := range b.Poly.Coeffs[1:] {
			if v != 0 {
				return nil, fmt.Errorf("conv fold bias %d is not a constant-coefficient plaintext", o)
			}
		}
	}
	oh, ow := q.OutSize(h), q.OutSize(w)
	values := q.OutC * oh * ow
	f := &ConvFold{params: params, inputs: c * h * w}
	kernels := make(map[string]*he.PlainOperand)
	terms := make([][]foldTerm, c*h*w)
	var key []byte
	for lo := 0; lo < values; lo += g {
		crossing := len(f.biases)
		hi := min(lo+g, values)
		for p := range terms {
			terms[p] = terms[p][:0]
		}
		b := he.NewPlaintext(params)
		for j := lo; j < hi; j++ {
			o, oy, ox := j/(oh*ow), j%(oh*ow)/ow, j%ow
			b.Poly.Coeffs[j-lo] = bias[o].Poly.Coeffs[0]
			for i := 0; i < q.InC; i++ {
				for ky := 0; ky < q.K; ky++ {
					row := (i*h+oy*q.Stride+ky)*w + ox*q.Stride
					for kx := 0; kx < q.K; kx++ {
						// Outputs run in order, so each pixel's terms arrive
						// by ascending degree; zero weights contribute nothing.
						if wt := q.WAt(o, i, ky, kx) % t; wt != 0 {
							if wt < 0 {
								wt += t
							}
							terms[row+kx] = append(terms[row+kx], foldTerm{e: j - lo, w: uint64(wt)})
						}
					}
				}
			}
		}
		f.biases = append(f.biases, b)
		classOf := make(map[string]int)
		for p, ts := range terms {
			if len(ts) == 0 {
				continue
			}
			s := ts[0].e
			key = key[:0]
			for _, tm := range ts {
				key = binary.AppendUvarint(key, uint64(tm.e-s))
				key = binary.AppendUvarint(key, tm.w)
			}
			idx, ok := classOf[string(key)]
			if !ok {
				kernel, ok := kernels[string(key)]
				if !ok {
					pt := he.NewPlaintext(params)
					for _, tm := range ts {
						pt.Poly.Coeffs[tm.e-s] = tm.w
					}
					var err error
					if kernel, err = eval.PrepareOperand(pt); err != nil {
						return nil, err
					}
					kernels[string(key)] = kernel
				}
				idx = len(f.classes)
				classOf[string(key)] = idx
				f.classes = append(f.classes, foldClass{crossing: crossing, kernel: kernel})
			}
			cl := &f.classes[idx]
			cl.pixels = append(cl.pixels, p)
			cl.shifts = append(cl.shifts, s)
		}
	}
	f.kernels = len(kernels)
	return f, nil
}

// Classes returns how many (crossing, kernel) classes a Run multiplies —
// one forward transform pair and one pointwise product each.
func (f *ConvFold) Classes() int { return len(f.classes) }

// Kernels returns how many distinct class kernels the table holds.
func (f *ConvFold) Kernels() int { return f.kernels }

// Run computes the ⌈values/g⌉ crossing ciphertexts from the conv's input
// map, sharding classes across workers; each class's product is added to its
// crossing's evaluation-form accumulator under that crossing's lock, and
// addition in R_q does not depend on the order.
func (f *ConvFold) Run(eval *he.Evaluator, in []*he.Ciphertext, workers int) ([]*he.Ciphertext, error) {
	if len(in) != f.inputs {
		return nil, fmt.Errorf("conv fold input %d cts, want %d", len(in), f.inputs)
	}
	size := in[0].Size()
	out := make([]*he.Ciphertext, len(f.biases))
	for o := range out {
		out[o] = he.NewCiphertext(f.params, size)
		out[o].Form = he.NTTForm
	}
	locks := make([]sync.Mutex, len(out))
	n := max(min(workers, len(f.classes)), 1)
	scratch := make(chan *he.Ciphertext, n)
	for range n {
		scratch <- he.NewCiphertext(f.params, size)
	}
	err := ParallelFor(len(f.classes), workers, func(k int) error {
		cl := &f.classes[k]
		x := <-scratch
		defer func() { scratch <- x }()
		for _, p := range x.Polys {
			p.Zero()
		}
		x.Form = he.CoeffForm
		for i, p := range cl.pixels {
			if err := eval.MulMonomialAddInto(x, in[p], cl.shifts[i]); err != nil {
				return err
			}
		}
		x.ToNTT()
		locks[cl.crossing].Lock()
		defer locks[cl.crossing].Unlock()
		return eval.MulPlainOperandAddInto(out[cl.crossing], x, cl.kernel)
	})
	if err != nil {
		return nil, err
	}
	err = ParallelFor(len(out), workers, func(o int) error {
		out[o].ToCoeff()
		return eval.AddPlainInto(out[o], f.biases[o])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
