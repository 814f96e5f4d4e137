// Package linear holds the scalar-layout linear kernels of §IV-B — one
// ciphertext per feature-map value, every weight a constant the evaluator
// multiplies in as a scalar — shared by the hybrid engine (internal/core) and
// the pure-HE baseline (internal/cryptonets): convolution, fully connected
// and the k×k window sum in front of a division. Each conv or FC output is an
// independent weighted sum of input ciphertexts, computed by one call to the
// evaluator's lazy-reduction kernel (he.Evaluator.WeightedSumInto) over the
// output's non-zero terms, so the kernels shard positions across a worker
// pool; the FV evaluator is safe for concurrent use.
package linear

import (
	"fmt"
	"sync"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
)

// ParallelFor runs fn(i) for i in [0, n) on up to workers goroutines and
// returns the first error. workers ≤ 1 runs on the caller's goroutine.
func ParallelFor(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	// failed closes once on the first error so the dispatcher stops feeding
	// indices instead of draining the full range through the workers — a
	// failed 784-output layer should not run its remaining outputs. Once
	// failed is observed closed, no further fn call begins: the dispatcher
	// re-checks it non-blockingly before every send (a blocking two-way
	// select alone picks randomly when a worker is simultaneously ready,
	// leaking extra indices), and workers drain already-queued indices
	// without running them.
	failed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-failed:
					continue // a prior index failed; drain without running
				default:
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(failed)
					})
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-failed:
			break dispatch
		default:
		}
		select {
		case next <- i:
		case <-failed:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

// EncodeBias encodes a layer's quantized biases as the constant-coefficient
// plaintexts Conv and FC add to their outputs.
func EncodeBias(enc *encoding.ScalarEncoder, b []int64) []*he.Plaintext {
	out := make([]*he.Plaintext, len(b))
	for i, v := range b {
		out[i] = enc.Encode(v)
	}
	return out
}

// weightedSum gathers one output's non-zero (ciphertext, weight) terms and
// hands them to the evaluator's weighted-sum kernel in one call. Zero weights
// are skipped: they contribute nothing to the value and skipping them adds no
// noise.
type weightedSum struct {
	cts []*he.Ciphertext
	ws  []int64
}

func (s *weightedSum) add(ct *he.Ciphertext, w int64) {
	if w != 0 {
		s.cts = append(s.cts, ct)
		s.ws = append(s.ws, w)
	}
}

// finish returns Σ w_i·ct_i + bias and empties the scratch for the next
// output. An output whose weights are all zero still has to be a ciphertext
// of the layer's size, form and parameters: it is 0·in0 + bias, for any input
// in0 of the layer.
func (s *weightedSum) finish(eval *he.Evaluator, in0 *he.Ciphertext, bias *he.Plaintext) (*he.Ciphertext, error) {
	acc := he.NewCiphertext(in0.Params, in0.Size())
	acc.Form = in0.Form
	err := eval.WeightedSumInto(acc, s.cts, s.ws)
	s.cts, s.ws = s.cts[:0], s.ws[:0]
	if err != nil {
		return nil, err
	}
	if err := eval.AddPlainInto(acc, bias); err != nil {
		return nil, err
	}
	return acc, nil
}

// newSums returns a free list of term scratch, one per output ParallelFor
// can run at once, each pre-sized to the layer's terms per output so the
// gathering never grows a slice.
func newSums(outputs, workers, terms int) chan *weightedSum {
	n := max(min(workers, outputs), 1)
	sums := make(chan *weightedSum, n)
	for range n {
		sums <- &weightedSum{cts: make([]*he.Ciphertext, 0, terms), ws: make([]int64, 0, terms)}
	}
	return sums
}

// Conv computes the quantized convolution q over a channel-major c×h×w map
// of scalar ciphertexts, bias[o] added to every position of output channel o,
// and returns the OutC×oh×ow map in the same order.
func Conv(eval *he.Evaluator, q *nn.QuantizedConv, bias []*he.Plaintext,
	in []*he.Ciphertext, c, h, w, workers int) (out []*he.Ciphertext, oh, ow int, err error) {
	if c != q.InC || len(in) != c*h*w {
		return nil, 0, 0, fmt.Errorf("conv input %d cts (%dx%dx%d), want inC=%d", len(in), c, h, w, q.InC)
	}
	oh, ow = q.OutSize(h), q.OutSize(w)
	out = make([]*he.Ciphertext, q.OutC*oh*ow)
	sums := newSums(len(out), workers, q.InC*q.K*q.K)
	err = ParallelFor(len(out), workers, func(idx int) error {
		o, oy, ox := idx/(oh*ow), idx%(oh*ow)/ow, idx%ow
		sum := <-sums
		defer func() { sums <- sum }()
		for i := 0; i < q.InC; i++ {
			for ky := 0; ky < q.K; ky++ {
				row := (i*h+oy*q.Stride+ky)*w + ox*q.Stride
				for kx := 0; kx < q.K; kx++ {
					sum.add(in[row+kx], q.WAt(o, i, ky, kx))
				}
			}
		}
		var err error
		out[idx], err = sum.finish(eval, in[0], bias[o])
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return out, oh, ow, nil
}

// FC computes the quantized fully connected layer q over q.In scalar
// ciphertexts, one output ciphertext per row.
func FC(eval *he.Evaluator, q *nn.QuantizedFC, bias []*he.Plaintext,
	in []*he.Ciphertext, workers int) ([]*he.Ciphertext, error) {
	if len(in) != q.In {
		return nil, fmt.Errorf("fc input %d cts, want %d", len(in), q.In)
	}
	out := make([]*he.Ciphertext, q.Out)
	sums := newSums(q.Out, workers, q.In)
	err := ParallelFor(q.Out, workers, func(o int) error {
		sum := <-sums
		defer func() { sums <- sum }()
		for i, ct := range in {
			sum.add(ct, q.W[o*q.In+i])
		}
		var err error
		out[o], err = sum.finish(eval, in[0], bias[o])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WindowSum adds up every k×k window of a channel-major c×h×w map — mean
// pooling without its division, which the caller leaves to the enclave
// (SGXDiv) or to the client's scale (the baseline's scaled mean-pool). A
// k = 1 window is its input: the outputs alias the inputs.
func WindowSum(eval *he.Evaluator, in []*he.Ciphertext, c, h, w, k, workers int) (out []*he.Ciphertext, oh, ow int, err error) {
	if len(in) != c*h*w {
		return nil, 0, 0, fmt.Errorf("pool input %d cts != %d*%d*%d", len(in), c, h, w)
	}
	if k <= 0 || h%k != 0 || w%k != 0 {
		return nil, 0, 0, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	oh, ow = h/k, w/k
	out = make([]*he.Ciphertext, c*oh*ow)
	err = ParallelFor(len(out), workers, func(idx int) error {
		ch, oy, ox := idx/(oh*ow), idx%(oh*ow)/ow, idx%ow
		var acc *he.Ciphertext
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				ct := in[(ch*h+oy*k+ky)*w+ox*k+kx]
				if acc == nil {
					acc = ct
					continue
				}
				var err error
				if acc, err = eval.Add(acc, ct); err != nil {
					return err
				}
			}
		}
		out[idx] = acc
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return out, oh, ow, nil
}
