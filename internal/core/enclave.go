package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// lockedSource serializes access to a randomness source so concurrent
// ECALLs can share it safely.
type lockedSource struct {
	mu  sync.Mutex
	src ring.Source
}

func (l *lockedSource) Uint64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Uint64()
}

// ECALL names exported by the inference enclave.
const (
	ECallProvision  = "provision"
	ECallSigmoid    = "sigmoid"
	ECallActivation = "activation"
	ECallPoolDivide = "pool_divide"
	ECallPoolFull   = "pool_full"
	ECallPoolMax    = "pool_max"
	ECallRefresh    = "refresh"
	ECallLanePack   = "lane_pack"
	ECallLaneDemux  = "lane_demux"
	ECallPoolUnpack = "pool_unpack"
	ECallGaloisKeys = "galois_keys"
)

// EnclaveName identifies the inference enclave; it feeds the measurement.
const EnclaveName = "hesgx-inference-enclave"

// EnclaveVersion feeds the measurement; bump on trusted-code changes.
const EnclaveVersion = "1.9.0"

// EnclaveService hosts the trusted half of the framework on an SGX
// platform: FV key generation and custody, key provisioning via ECDH for
// attestation-protected delivery, and the decrypt–compute–re-encrypt ECALLs
// for non-polynomial layers (§IV-D) and noise refresh (§IV-E).
//
// The untrusted server code only ever sees ciphertexts and the public key;
// the secret key lives inside the enclave state.
type EnclaveService struct {
	params  he.Parameters
	enclave *sgx.Enclave

	// metrics, when set, receives per-ECALL latency histograms and
	// transition/paging counters (untrusted-side observability only).
	metrics *stats.Registry

	// trusted state (conceptually inside the enclave)
	state *enclaveState
}

// SetMetrics attaches a registry that receives per-ECALL latency
// histograms ("ecall.<op>_ms") and transition/page-fault counters from
// every Nonlinear call. Call before serving traffic.
func (s *EnclaveService) SetMetrics(reg *stats.Registry) { s.metrics = reg }

// enclaveState is the data held inside the enclave. The FV keys rest as
// serialized blobs (as they would in sealed storage); every ECALL loads and
// re-derives working key objects, the behavior behind the paper's Table V
// observation that batching lets "the encryption and decryption keys ...
// be loaded once" per boundary crossing.
type enclaveState struct {
	params he.Parameters
	// skBytes/pkBytes are the at-rest serialized keys.
	skBytes []byte
	pkBytes []byte
	// keyBlob is the serialized key material delivered to users.
	keyBlob []byte
	// src feeds re-encryption randomness.
	src ring.Source
	// actKind is the default activation computed by ECallActivation when a
	// request does not carry its own kind. Atomic: SetActivation may race
	// with concurrent ECALLs.
	actKind atomic.Int64
	// cachedPK is retained only to answer the untrusted PublicKey()
	// accessor; trusted code paths load from pkBytes.
	cachedPK *he.PublicKey

	// batchOnce lazily builds the slot codec for SIMD requests; batchErr
	// records an unsupported plaintext modulus.
	batchOnce sync.Once
	batchEnc  *encoding.BatchEncoder
	batchErr  error

	// packedOnce lazily builds the rotation-aware slot codec for
	// pool-unpack requests (same modulus requirement as batching, but
	// slots addressed by root exponent so Galois rotations are row shifts).
	packedOnce sync.Once
	packedEnc  *encoding.PackedEncoder
	packedErr  error
}

// slotCodec returns the CRT slot encoder for SIMD requests.
func (st *enclaveState) slotCodec() (*encoding.BatchEncoder, error) {
	st.batchOnce.Do(func() {
		st.batchEnc, st.batchErr = encoding.NewBatchEncoder(st.params)
	})
	return st.batchEnc, st.batchErr
}

// packedCodec returns the rotation-aware slot encoder for packed layouts.
func (st *enclaveState) packedCodec() (*encoding.PackedEncoder, error) {
	st.packedOnce.Do(func() {
		st.packedEnc, st.packedErr = encoding.NewPackedEncoder(st.params)
	})
	return st.packedEnc, st.packedErr
}

// loadedKeys are the working key objects an ECALL derives from the at-rest
// blobs on entry. pk is retained so lane ECALLs can derive additional
// encryptors for parallel re-encryption (encryptors own samplers and are
// not safe to share across goroutines).
type loadedKeys struct {
	dec *he.Decryptor
	enc *he.Encryptor
	pk  *he.PublicKey
}

// loadKeys deserializes and re-derives the FV keys, charging the enclave
// for the very real work (parse + NTT precomputation) every boundary
// crossing pays.
func (st *enclaveState) loadKeys(ctx *sgx.Context) (*loadedKeys, error) {
	ctx.Touch(len(st.skBytes) + len(st.pkBytes))
	sk, err := he.UnmarshalSecretKey(st.skBytes)
	if err != nil {
		return nil, fmt.Errorf("loading secret key: %w", err)
	}
	pk, err := he.UnmarshalPublicKey(st.pkBytes)
	if err != nil {
		return nil, fmt.Errorf("loading public key: %w", err)
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		return nil, err
	}
	enc, err := he.NewEncryptor(pk, st.src)
	if err != nil {
		return nil, err
	}
	return &loadedKeys{dec: dec, enc: enc, pk: pk}, nil
}

// ServiceOption customizes enclave service construction.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	keySource ring.Source
}

// WithKeySource overrides the randomness used for FV key generation and
// re-encryption inside the enclave (tests use a seeded source).
func WithKeySource(src ring.Source) ServiceOption {
	return func(c *serviceConfig) { c.keySource = src }
}

// NewEnclaveService launches the inference enclave on platform and
// generates the FV key material inside it.
func NewEnclaveService(platform *sgx.Platform, params he.Parameters, opts ...ServiceOption) (*EnclaveService, error) {
	if !params.Valid() {
		return nil, fmt.Errorf("core: invalid parameters")
	}
	cfg := serviceConfig{keySource: ring.NewCryptoSource()}
	for _, o := range opts {
		o(&cfg)
	}

	state := &enclaveState{params: params, src: &lockedSource{src: cfg.keySource}}
	kg, err := he.NewKeyGenerator(params, cfg.keySource)
	if err != nil {
		return nil, fmt.Errorf("core: enclave key generator: %w", err)
	}
	sk, pk := kg.GenKeyPair()
	state.cachedPK = pk
	if state.skBytes, err = he.MarshalSecretKey(sk); err != nil {
		return nil, err
	}
	if state.pkBytes, err = he.MarshalPublicKey(pk); err != nil {
		return nil, err
	}

	var blob bytes.Buffer
	if err := he.WriteParameters(&blob, params); err != nil {
		return nil, err
	}
	if err := he.WriteSecretKey(&blob, sk); err != nil {
		return nil, err
	}
	if err := he.WritePublicKey(&blob, pk); err != nil {
		return nil, err
	}
	state.keyBlob = blob.Bytes()

	enclave, err := platform.Launch(sgx.Definition{
		Name:    EnclaveName,
		Version: EnclaveVersion,
		ECalls: map[string]sgx.ECallFunc{
			ECallProvision:  state.provision,
			ECallSigmoid:    state.sigmoid,
			ECallActivation: state.activation,
			ECallPoolDivide: state.poolDivide,
			ECallPoolFull:   state.poolFull,
			ECallPoolMax:    state.poolMax,
			ECallRefresh:    state.refresh,
			ECallLanePack:   state.lanePack,
			ECallLaneDemux:  state.laneDemux,
			ECallPoolUnpack: state.poolUnpack,
			ECallGaloisKeys: state.galoisKeys,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: launching enclave: %w", err)
	}
	return &EnclaveService{params: params, enclave: enclave, state: state}, nil
}

// Params returns the FV parameter set the enclave generated keys for.
func (s *EnclaveService) Params() he.Parameters { return s.params }

// Enclave exposes the underlying enclave (for attestation quoting).
func (s *EnclaveService) Enclave() *sgx.Enclave { return s.enclave }

// PublicKey returns the HE public key. The public key is not secret; the
// untrusted server may use it (e.g. for transparent re-encryption tests),
// while users receive it through the attested channel.
func (s *EnclaveService) PublicKey() *he.PublicKey { return s.state.cachedPK }

// SetActivation selects the default activation function computed by the
// generic activation ECALL (default Sigmoid). Values follow nn.ActKind.
// Requests that carry their own NonlinearOp.Act override this; the setter
// remains for Nonlinear callers that omit Act.
func (s *EnclaveService) SetActivation(kind int) { s.state.actKind.Store(int64(kind)) }

// touchKeys accounts the enclave-resident key material against the EPC.
func (st *enclaveState) touchKeys(ctx *sgx.Context) {
	ctx.Touch(st.params.N * 8 * 4) // sk, pk (2 polys), scratch
}

// provision answers a key-delivery request: input is the user's ephemeral
// ECDH public key (P-256, uncompressed). The enclave derives a shared
// secret, encrypts the FV key blob under it, and returns
// enclavePub || nonce || ciphertext — which the server embeds, untouched,
// in an attestation quote's user-data field. Only the requesting user can
// decrypt, and the quote signature proves the payload came from this
// enclave (§IV-A without any external trusted third party).
func (st *enclaveState) provision(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	curve := ecdh.P256()
	userPub, err := curve.NewPublicKey(input)
	if err != nil {
		return nil, fmt.Errorf("invalid user ECDH key: %w", err)
	}
	eph, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generating enclave ECDH key: %w", err)
	}
	shared, err := eph.ECDH(userPub)
	if err != nil {
		return nil, fmt.Errorf("ECDH agreement: %w", err)
	}
	key := sha256.Sum256(append([]byte("hesgx/core/provision/v1"), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	sealed := gcm.Seal(nil, nonce, st.keyBlob, nil)

	var out bytes.Buffer
	ephPub := eph.PublicKey().Bytes()
	writeU32(&out, uint32(len(ephPub)))
	out.Write(ephPub)
	writeU32(&out, uint32(len(nonce)))
	out.Write(nonce)
	writeU32(&out, uint32(len(sealed)))
	out.Write(sealed)
	ctx.Touch(len(st.keyBlob) * 2)
	return out.Bytes(), nil
}

// slotDecoder reads the value vector a decrypted plaintext carries: a slot
// codec (batch or packed), or coeffDecoder for the scalar layout.
type slotDecoder interface {
	Decode(pt *he.Plaintext) ([]int64, error)
}

// coeffDecoder reads the first g plaintext coefficients, centered mod t: the
// scalar layout's one value at the constant coefficient (g = 1), or the g map
// values of a coefficient-packed ciphertext. The caller has bounded g by n.
type coeffDecoder struct {
	t uint64
	g int
}

func (d coeffDecoder) Decode(pt *he.Plaintext) ([]int64, error) {
	out := make([]int64, d.g)
	for i, c := range pt.Poly.Coeffs[:d.g] {
		out[i] = int64(c)
		if c > d.t/2 {
			out[i] -= int64(d.t)
		}
	}
	return out, nil
}

// decryptVectors decrypts a batch into centered value vectors — one per
// ciphertext, as codec reads it.
func (st *enclaveState) decryptVectors(ctx *sgx.Context, keys *loadedKeys, payload []byte, codec slotDecoder) ([][]int64, error) {
	cts, err := decodeCiphertextBatch(payload, st.params)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(cts))
	for i, ct := range cts {
		pt, err := keys.dec.Decrypt(ct)
		if err != nil {
			return nil, fmt.Errorf("decrypting batch element %d: %w", i, err)
		}
		if out[i], err = codec.Decode(pt); err != nil {
			return nil, fmt.Errorf("decoding element %d: %w", i, err)
		}
		ctx.Touch(st.params.N * 8 * 2)
	}
	return out, nil
}

// encryptVectors re-encrypts value vectors as fresh ciphertexts: in SIMD
// mode one vector per slot-packed ciphertext; otherwise vector value i at
// plaintext coefficient i — one value at the constant coefficient, where
// scalar decryption reads it, or a whole coefficient-packed map, which must
// hold at most n values.
func (st *enclaveState) encryptVectors(ctx *sgx.Context, keys *loadedKeys, vecs [][]int64, simd bool) ([]byte, error) {
	var codec *encoding.BatchEncoder
	if simd {
		var err error
		if codec, err = st.slotCodec(); err != nil {
			return nil, fmt.Errorf("SIMD request: %w", err)
		}
	}
	t := int64(st.params.T)
	cts := make([]*he.Ciphertext, len(vecs))
	for i, vec := range vecs {
		var ct *he.Ciphertext
		var err error
		if simd {
			pt, encodeErr := codec.Encode(vec)
			if encodeErr != nil {
				return nil, encodeErr
			}
			ct, err = keys.enc.Encrypt(pt)
		} else {
			if len(vec) > st.params.N {
				return nil, fmt.Errorf("re-encrypting element %d: %d values exceed %d plaintext coefficients", i, len(vec), st.params.N)
			}
			pt := he.NewPlaintext(st.params)
			for j, v := range vec {
				if v %= t; v < 0 {
					v += t
				}
				pt.Poly.Coeffs[j] = uint64(v)
			}
			ct, err = keys.enc.Encrypt(pt)
		}
		if err != nil {
			return nil, fmt.Errorf("re-encrypting element %d: %w", i, err)
		}
		cts[i] = ct
		ctx.Touch(st.params.N * 8 * 2)
	}
	return encodeCiphertextBatch(cts)
}

// applyActivation is the trusted non-linearity: dequantize, evaluate,
// requantize. The caller has checked kind with checkActKind.
func applyActivation(kind nn.ActKind, vals []int64, inScale, outScale float64) {
	for i, v := range vals {
		vals[i] = int64(math.Round(kind.Apply(float64(v)/inScale) * outScale))
	}
}

// batchLayout says how a vectorOp ECALL reads the plaintexts of its batch.
type batchLayout int

const (
	// valueBatch: the constant coefficient of each ciphertext, or every CRT
	// slot (§VIII) when the request says SIMD.
	valueBatch batchLayout = iota
	// coeffBatch: as valueBatch, except that a scalar request may carry
	// CoeffIn map values per ciphertext — the whole-map pools.
	coeffBatch
	// rotationBatch: slot vectors in rotation order, the rotation-packed
	// layout's pool_unpack.
	rotationBatch
)

// vectorFunc is the plaintext stage of a decrypt–compute–re-encrypt ECALL:
// it maps the decrypted value vectors to the vectors to re-encrypt.
type vectorFunc func(vecs [][]int64) ([][]int64, error)

// vectorOp is the one body of those ECALLs (§IV-D): load the keys, parse the
// envelope, let plan refuse the request before anything is decoded or
// decrypted, decrypt the batch, run the planned stage on the plaintext, and
// re-encrypt what it returns. How the batch is read is the ECALL's layout.
func (st *enclaveState) vectorOp(ctx *sgx.Context, input []byte, layout batchLayout, plan func(req *nonlinearRequest) (vectorFunc, error)) ([]byte, error) {
	st.touchKeys(ctx)
	keys, err := st.loadKeys(ctx)
	if err != nil {
		return nil, err
	}
	req, err := unmarshalNonlinearRequest(input)
	if err != nil {
		return nil, err
	}
	// CoeffIn belongs to the scalar batch of a whole-map pool; anywhere else,
	// or reaching past the plaintext, it is refused from the header. The plan
	// and the decoder see it normalized: 0 reads as 1.
	switch g := int(req.CoeffIn); {
	case g == 0:
		req.CoeffIn = 1
	case layout != coeffBatch || req.SIMD != 0:
		return nil, fmt.Errorf("request carries %d values per ciphertext, but this batch (SIMD %d) holds one", g, req.SIMD)
	case g > st.params.N:
		return nil, fmt.Errorf("%d values per ciphertext exceed %d plaintext coefficients", g, st.params.N)
	}
	compute, err := plan(req)
	if err != nil {
		return nil, err
	}
	var codec slotDecoder = coeffDecoder{t: st.params.T, g: int(req.CoeffIn)}
	switch {
	case layout == rotationBatch:
		codec, err = st.packedCodec()
	case req.SIMD != 0:
		codec, err = st.slotCodec()
	}
	if err != nil {
		return nil, fmt.Errorf("slot-encoded request: %w", err)
	}
	vecs, err := st.decryptVectors(ctx, keys, req.CTs, codec)
	if err != nil {
		return nil, err
	}
	if vecs, err = compute(vecs); err != nil {
		return nil, err
	}
	return st.encryptVectors(ctx, keys, vecs, req.SIMD != 0 && layout != rotationBatch)
}

// activationStage plans the element-wise activation a request carries:
// decrypted integers are dequantized by InScale, evaluated exactly in
// floating point, and requantized at OutScale. An unknown kind or a zero
// scale is refused here, before any ciphertext is decrypted.
func activationStage(kind int, req *nonlinearRequest) (vectorFunc, error) {
	if err := checkActKind(kind); err != nil {
		return nil, err
	}
	if req.InScale == 0 || req.OutScale == 0 {
		return nil, fmt.Errorf("activation with zero scale (in %d, out %d)", req.InScale, req.OutScale)
	}
	in, out := float64(req.InScale), float64(req.OutScale)
	return func(vecs [][]int64) ([][]int64, error) {
		for _, vec := range vecs {
			applyActivation(nn.ActKind(kind), vec, in, out)
		}
		return vecs, nil
	}, nil
}

// sigmoid is the §IV-D plaintext computation for the activation layer:
// decrypt, exact Sigmoid on dequantized values, requantize, re-encrypt.
func (st *enclaveState) sigmoid(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.vectorOp(ctx, input, valueBatch, func(req *nonlinearRequest) (vectorFunc, error) {
		return activationStage(int(nn.Sigmoid), req)
	})
}

// activation generalizes sigmoid to the activation the request names (or,
// when it names none, the enclave's configured default), demonstrating
// §VI-C's point that SGX evaluates diverse activations (ReLU, Tanh, ...)
// without approximation.
func (st *enclaveState) activation(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.vectorOp(ctx, input, valueBatch, func(req *nonlinearRequest) (vectorFunc, error) {
		kind := int(req.Act)
		if kind == 0 {
			kind = int(st.actKind.Load())
		}
		if kind == 0 {
			kind = int(nn.Sigmoid)
		}
		return activationStage(kind, req)
	})
}

// poolDivide implements the second half of the SGXDiv strategy (§VI-D):
// the window sums arrive already computed homomorphically outside; the
// enclave performs only the non-linear division.
func (st *enclaveState) poolDivide(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.vectorOp(ctx, input, valueBatch, func(req *nonlinearRequest) (vectorFunc, error) {
		if req.Divisor == 0 {
			return nil, fmt.Errorf("pool divide with zero divisor")
		}
		d := int64(req.Divisor)
		return func(vecs [][]int64) ([][]int64, error) {
			for _, vec := range vecs {
				for i, v := range vec {
					vec[i] = divRound(v, d)
				}
			}
			return vecs, nil
		}, nil
	})
}

// divRound divides with round-half-away-from-zero.
func divRound(v, d int64) int64 {
	if v >= 0 {
		return (v + d/2) / d
	}
	return -((-v + d/2) / d)
}

// poolFull implements the SGXPool strategy (§VI-D): the whole feature map
// enters the enclave, which computes mean pooling (sum and divide) in
// plaintext and re-encrypts the smaller map.
func (st *enclaveState) poolFull(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.poolKind(ctx, input, false)
}

// poolMax is max pooling, which HE cannot express at all (§VI-D's closing
// observation: max-pooling is only possible via SGX in this framework).
func (st *enclaveState) poolMax(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.poolKind(ctx, input, true)
}

// poolKind pools a whole feature map in plaintext. A request that carries an
// activation kind is a fused stage: the map is the linear layer's output, and
// the activation runs on the decrypted integers first — the values
// entering the pool are the ones a separate activation ECALL would have
// re-encrypted, so one crossing replaces two and only the pooled map is
// re-encrypted.
//
// A scalar-layout map may cross coefficient-packed both ways. In: CoeffIn = g
// values per ciphertext, flat channel-major value i at coefficient i mod g of
// ciphertext i div g (the untrusted engine folds them with monomial shifts;
// g = 1 is one value per ciphertext), read back into the same one-value
// vectors the stages below have always worked on. Out: with CoeffOut the
// pooled map leaves as ONE ciphertext, value i at coefficient i, as on
// poolUnpack. A SIMD map uses its slots for lanes and crosses per position.
func (st *enclaveState) poolKind(ctx *sgx.Context, input []byte, usesMax bool) ([]byte, error) {
	return st.vectorOp(ctx, input, coeffBatch, func(req *nonlinearRequest) (vectorFunc, error) {
		w, h, c, k := int(req.Width), int(req.Height), int(req.Channels), int(req.Window)
		// The per-dimension cap keeps c·h·w from wrapping on a hostile envelope.
		if w <= 0 || h <= 0 || c <= 0 || k <= 0 || max(w, h, c) > maxBatchCiphertexts {
			return nil, fmt.Errorf("pool geometry %dx%dx%d window %d invalid", c, h, w, k)
		}
		if h%k != 0 || w%k != 0 {
			return nil, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
		}
		var activate vectorFunc
		if req.Act != 0 {
			var err error
			if activate, err = activationStage(int(req.Act), req); err != nil {
				return nil, err
			}
		}
		simd, coeffOut := req.SIMD != 0, req.CoeffOut != 0
		oh, ow := h/k, w/k
		if coeffOut && simd {
			return nil, fmt.Errorf("pool of a SIMD map has no coefficient-packed output")
		}
		// Dividing keeps a hostile channel count from wrapping the product.
		if coeffOut && c > st.params.N/(oh*ow) {
			return nil, fmt.Errorf("pooled map %dx%dx%d exceeds %d plaintext coefficients", c, oh, ow, st.params.N)
		}
		// A batch opens with its ciphertext count: compared before any is
		// decoded. vectorOp has put CoeffIn in [1, n].
		values, g := c*h*w, int(req.CoeffIn)
		if want := (values + g - 1) / g; len(req.CTs) < 4 || int(leU32(req.CTs)) != want {
			return nil, fmt.Errorf("pool batch does not hold the %d ciphertexts of a %dx%dx%d map at %d values each", want, c, h, w, g)
		}
		return func(vecs [][]int64) ([][]int64, error) {
			if !simd {
				flat := make([]int64, 0, len(vecs)*g)
				for _, vec := range vecs {
					flat = append(flat, vec...)
				}
				vecs = valueVectors(flat[:values])
			}
			if activate != nil {
				vecs, _ = activate(vecs) // element-wise and in place: it cannot fail
			}
			vecs = poolVectors(vecs, c, h, w, k, usesMax)
			if coeffOut {
				flat := make([]int64, len(vecs))
				for i, vec := range vecs {
					flat[i] = vec[0]
				}
				vecs = [][]int64{flat}
			}
			return vecs, nil
		}, nil
	})
}

// valueVectors views a flat value list as one-value vectors, the scalar
// layout's shape.
func valueVectors(flat []int64) [][]int64 {
	out := make([][]int64, len(flat))
	for i := range flat {
		out[i] = flat[i : i+1]
	}
	return out
}

// poolVectors pools a channel-major c×h×w map of value vectors with a k×k
// window, slot by slot: the window maximum, or its round-half-away mean.
func poolVectors(vecs [][]int64, c, h, w, k int, usesMax bool) [][]int64 {
	width := 1
	if len(vecs) > 0 {
		width = len(vecs[0])
	}
	oh, ow := h/k, w/k
	out := make([][]int64, c*oh*ow)
	for i := range out {
		out[i] = make([]int64, width)
	}
	area := int64(k * k)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := out[(ch*oh+oy)*ow+ox]
				for s := 0; s < width; s++ {
					if usesMax {
						best := vecs[(ch*h+oy*k)*w+ox*k][s]
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								if v := vecs[(ch*h+oy*k+ky)*w+ox*k+kx][s]; v > best {
									best = v
								}
							}
						}
						dst[s] = best
					} else {
						var sum int64
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								sum += vecs[(ch*h+oy*k+ky)*w+ox*k+kx][s]
							}
						}
						dst[s] = divRound(sum, area)
					}
				}
			}
		}
	}
	return out
}

// refresh decrypts and immediately re-encrypts the full plaintext
// polynomial, removing accumulated noise without relinearization keys
// (§IV-E). Size-3 ciphertexts collapse back to size 2, so refresh also
// substitutes for relinearization.
func (st *enclaveState) refresh(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	keys, err := st.loadKeys(ctx)
	if err != nil {
		return nil, err
	}
	cts, err := decodeCiphertextBatch(input, st.params)
	if err != nil {
		return nil, err
	}
	out := make([]*he.Ciphertext, len(cts))
	for i, ct := range cts {
		pt, err := keys.dec.Decrypt(ct)
		if err != nil {
			return nil, fmt.Errorf("refresh decrypt %d: %w", i, err)
		}
		fresh, err := keys.enc.Encrypt(pt)
		if err != nil {
			return nil, fmt.Errorf("refresh re-encrypt %d: %w", i, err)
		}
		out[i] = fresh
		ctx.Touch(st.params.N * 8 * 4)
	}
	return encodeCiphertextBatch(out)
}

// ErrPoolUnpackRequest marks a pool-unpack request the enclave refused
// before decoding or decrypting anything: inconsistent geometry, an unusable
// activation stage, a batch that does not match the channel count, or a
// pooled map that does not fit the requested output layout. The untrusted
// caller built the request, so these are its faults — never a reason to hand
// back a partial map.
var ErrPoolUnpackRequest = errors.New("malformed pool unpack request")

func poolUnpackErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrPoolUnpackRequest, fmt.Sprintf(format, args...))
}

// poolUnpack is the packed twin of poolFull: each input ciphertext is one
// slot-packed channel of the feature map itself, value (y, x) at slot
// y·stride + x, with stride = req.Lanes (the slot row stride of the packed
// layout — the original image width). The enclave decrypts with the
// rotation-aware packed codec and gathers the h×w map; a request that
// carries an activation kind is a fused stage, as on poolKind: the map is
// the conv output and the activation runs on the decrypted integers first.
// Every k×k window is then summed and divided in plaintext, and the pooled
// map is re-encrypted in channel-major order (the order flatten assumes).
// With req.CoeffOut the whole map leaves as ONE ciphertext — pooled value i
// at plaintext coefficient i, the input layout of the engine's
// coefficient-packed FC kernel — so the boundary is crossed by one public-key
// encryption instead of C·oh·ow; otherwise it leaves as one scalar ciphertext
// per value for the scalar flatten/FC tail. Everything the envelope can get
// wrong is refused before the batch is decoded.
func (st *enclaveState) poolUnpack(ctx *sgx.Context, input []byte) ([]byte, error) {
	return st.vectorOp(ctx, input, rotationBatch, func(req *nonlinearRequest) (vectorFunc, error) {
		w, h, c, k, stride := int(req.Width), int(req.Height), int(req.Channels), int(req.Window), int(req.Lanes)
		if w <= 0 || h <= 0 || c <= 0 || k <= 0 {
			return nil, poolUnpackErr("geometry %dx%dx%d window %d invalid", c, h, w, k)
		}
		if h%k != 0 || w%k != 0 {
			return nil, poolUnpackErr("window %d does not divide %dx%d", k, h, w)
		}
		if stride < w {
			return nil, poolUnpackErr("slot stride %d below map width %d", stride, w)
		}
		if req.Divisor == 0 {
			return nil, poolUnpackErr("zero divisor")
		}
		// The whole map must live in row 0 of the packed layout, n/2 slots
		// (the conv's rotations never mix the two rows). Capping h and stride
		// by the row length first keeps the furthest slot's product from
		// wrapping.
		if rowLen := st.params.N / 2; h > rowLen || stride > rowLen || (h-1)*stride+(w-1) >= rowLen {
			return nil, poolUnpackErr("%dx%d map at slot stride %d exceeds row length %d", h, w, stride, rowLen)
		}
		oh, ow := h/k, w/k
		coeffOut := req.CoeffOut != 0
		// oh, ow < row length here, so oh·ow cannot overflow; dividing keeps
		// a hostile channel count from wrapping the product.
		if coeffOut && c > st.params.N/(oh*ow) {
			return nil, poolUnpackErr("pooled map %dx%dx%d exceeds %d plaintext coefficients", c, oh, ow, st.params.N)
		}
		var activate vectorFunc
		if req.Act != 0 {
			var err error
			if activate, err = activationStage(int(req.Act), req); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrPoolUnpackRequest, err)
			}
		}
		// A batch opens with its ciphertext count: compared before any is
		// decoded.
		if len(req.CTs) < 4 || int(leU32(req.CTs)) != c {
			return nil, poolUnpackErr("batch does not hold one ciphertext for each of %d channels", c)
		}
		d := int64(req.Divisor)
		return func(vecs [][]int64) ([][]int64, error) {
			pooled := make([]int64, 0, c*oh*ow)
			fmap := make([]int64, h*w) // one channel's map, row-major
			for _, slots := range vecs {
				for y := 0; y < h; y++ {
					copy(fmap[y*w:(y+1)*w], slots[y*stride:])
				}
				if activate != nil {
					activate([][]int64{fmap}) // element-wise and in place: it cannot fail
				}
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						var sum int64
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								sum += fmap[(oy*k+ky)*w+ox*k+kx]
							}
						}
						pooled = append(pooled, divRound(sum, d))
					}
				}
			}
			if coeffOut {
				return [][]int64{pooled}, nil
			}
			return valueVectors(pooled), nil
		}, nil
	})
}

// galoisKeys generates rotation key-switch keys inside the enclave for a
// planner-supplied step set: payload is [baseBits u32][count u32][steps
// i64...], reply the serialized he.GaloisKeys. Rotation keys are public
// material (encryptions of automorphed secret-key digits), so handing them
// to the untrusted engine leaks nothing the evaluation keys don't already.
func (st *enclaveState) galoisKeys(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	r := bytes.NewReader(input)
	baseBits, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("galois keys base bits: %w", err)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("galois keys step count: %w", err)
	}
	if count == 0 || int(count) > r.Len()/8 {
		return nil, fmt.Errorf("galois keys step count %d exceeds payload", count)
	}
	steps := make([]int, count)
	for i := range steps {
		v, err := readU64(r)
		if err != nil {
			return nil, fmt.Errorf("galois keys step %d: %w", i, err)
		}
		steps[i] = int(int64(v))
	}
	sk, err := he.UnmarshalSecretKey(st.skBytes)
	if err != nil {
		return nil, fmt.Errorf("loading secret key: %w", err)
	}
	kg, err := he.NewKeyGenerator(st.params, st.src)
	if err != nil {
		return nil, err
	}
	gk, err := kg.GenGaloisKeys(sk, steps, int(baseBits))
	if err != nil {
		return nil, err
	}
	out, err := he.MarshalGaloisKeys(gk)
	if err != nil {
		return nil, err
	}
	ctx.Touch(len(out))
	return out, nil
}
