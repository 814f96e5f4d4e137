package core

import (
	"fmt"
	"runtime"
	"sync"

	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/sgx"
)

// Lane packing (§VIII applied to serving): under concurrent load the edge
// server merges same-model requests from different clients into the CRT
// slot lanes of shared ciphertexts, runs one engine pass over the packed
// image, and splits per-lane logits back out on reply. Every client holds
// the same provisioned FV keypair (§IV-A delivers one enclave-generated key
// to all users), so repacking is possible — but only inside the enclave,
// which alone holds the secret key. The two ECALLs below are that trusted
// repacking: both decrypt, transpose between scalar and slot layouts, and
// re-encrypt fresh, so a pack doubles as a noise refresh and the engine's
// static noise accountant applies to the packed pass unchanged.

// laneWorkers sizes the parallelism of a lane repack: large batches
// (64 lanes × hundreds of pixels) decrypt and re-encrypt across cores,
// small ones stay sequential to avoid goroutine overhead.
func laneWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if n < 32 || w < 2 {
		return 1
	}
	return w
}

// encryptChunked fills out[i] = build(i, enc) for i in [0, n), splitting the
// range across workers. Worker 0 reuses keys.enc; the rest derive their own
// encryptor from the loaded public key, because encryptors own samplers and
// must not be shared across goroutines.
func (st *enclaveState) encryptChunked(keys *loadedKeys, n, workers int, out []*he.Ciphertext, build func(i int, enc *he.Encryptor) (*he.Ciphertext, error)) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			ct, err := build(i, keys.enc)
			if err != nil {
				return err
			}
			out[i] = ct
		}
		return nil
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			enc := keys.enc
			if w > 0 {
				var err error
				if enc, err = he.NewEncryptor(keys.pk, st.src); err != nil {
					errs[w] = err
					return
				}
			}
			for i := lo; i < hi; i++ {
				ct, err := build(i, enc)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = ct
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lanePack merges req.Lanes scalar ciphertext groups, laid out lane-major
// (lane k's P ciphertexts at offset k*P), into P slot-packed fresh
// ciphertexts whose CRT slot k carries lane k's value.
func (st *enclaveState) lanePack(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	keys, err := st.loadKeys(ctx)
	if err != nil {
		return nil, err
	}
	req, err := unmarshalNonlinearRequest(input)
	if err != nil {
		return nil, err
	}
	codec, err := st.slotCodec()
	if err != nil {
		return nil, fmt.Errorf("lane pack: %w", err)
	}
	k := int(req.Lanes)
	if k < 2 || k > codec.SlotCount() {
		return nil, fmt.Errorf("lane pack: %d lanes outside [2, %d]", k, codec.SlotCount())
	}
	cts, err := decodeCiphertextBatch(req.CTs, st.params)
	if err != nil {
		return nil, err
	}
	if len(cts) == 0 || len(cts)%k != 0 {
		return nil, fmt.Errorf("lane pack: batch of %d does not split into %d lanes", len(cts), k)
	}
	p := len(cts) / k
	t := st.params.T
	// Decrypt every lane's scalar ciphertexts. The decryptor allocates its
	// own scratch and is safe to share, so large packs fan out across workers.
	vals := make([]int64, len(cts))
	workers := laneWorkers(len(cts))
	err = linear.ParallelFor(len(cts), workers, func(i int) error {
		pt, err := keys.dec.Decrypt(cts[i])
		if err != nil {
			return fmt.Errorf("lane pack decrypt %d: %w", i, err)
		}
		c := pt.Poly.Coeffs[0]
		v := int64(c)
		if c > t/2 {
			v = int64(c) - int64(t)
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.Touch(st.params.N * 8 * 2 * len(cts))
	// Transpose position by position: slot k of packed ciphertext pos is
	// lane k's value at pos.
	out := make([]*he.Ciphertext, p)
	err = st.encryptChunked(keys, p, workers, out, func(pos int, enc *he.Encryptor) (*he.Ciphertext, error) {
		slots := make([]int64, k)
		for lane := 0; lane < k; lane++ {
			slots[lane] = vals[lane*p+pos]
		}
		pt, err := codec.Encode(slots)
		if err != nil {
			return nil, fmt.Errorf("lane pack encode %d: %w", pos, err)
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			return nil, fmt.Errorf("lane pack re-encrypt %d: %w", pos, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	ctx.Touch(st.params.N * 8 * 2 * p)
	return encodeCiphertextBatch(out)
}

// laneDemux splits P slot-packed ciphertexts back into req.Lanes scalar
// groups, lane-major: output k*P+pos is lane k's value at pos, re-encrypted
// as a fresh scalar ciphertext. Keeping the demux inside the enclave means
// no client's reply ever carries another lane's logits.
func (st *enclaveState) laneDemux(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	keys, err := st.loadKeys(ctx)
	if err != nil {
		return nil, err
	}
	req, err := unmarshalNonlinearRequest(input)
	if err != nil {
		return nil, err
	}
	codec, err := st.slotCodec()
	if err != nil {
		return nil, fmt.Errorf("lane demux: %w", err)
	}
	k := int(req.Lanes)
	if k < 2 || k > codec.SlotCount() {
		return nil, fmt.Errorf("lane demux: %d lanes outside [2, %d]", k, codec.SlotCount())
	}
	cts, err := decodeCiphertextBatch(req.CTs, st.params)
	if err != nil {
		return nil, err
	}
	p := len(cts)
	if p == 0 {
		return nil, fmt.Errorf("lane demux: empty batch")
	}
	vals := make([]int64, k*p)
	workers := laneWorkers(k * p)
	err = linear.ParallelFor(p, workers, func(i int) error {
		pt, err := keys.dec.Decrypt(cts[i])
		if err != nil {
			return fmt.Errorf("lane demux decrypt %d: %w", i, err)
		}
		slots, err := codec.Decode(pt)
		if err != nil {
			return fmt.Errorf("lane demux decode %d: %w", i, err)
		}
		for lane := 0; lane < k; lane++ {
			vals[lane*p+i] = slots[lane]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.Touch(st.params.N * 8 * 2 * p)
	t := int64(st.params.T)
	out := make([]*he.Ciphertext, k*p)
	err = st.encryptChunked(keys, k*p, workers, out, func(i int, enc *he.Encryptor) (*he.Ciphertext, error) {
		r := vals[i] % t
		if r < 0 {
			r += t
		}
		ct, err := enc.EncryptScalar(uint64(r))
		if err != nil {
			return nil, fmt.Errorf("lane demux re-encrypt %d: %w", i, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	ctx.Touch(st.params.N * 8 * 2 * k * p)
	return encodeCiphertextBatch(out)
}
