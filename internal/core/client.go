package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"runtime"

	"hesgx/internal/attest"
	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/linear"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// Client is the user side of the framework: it runs the attested key
// exchange of §IV-A, holds the HE keys afterwards, encrypts query images
// pixel-by-pixel, and decrypts returned inference results.
// EncryptImageSeeded spreads the pixels over every core and is safe for
// concurrent callers; the other encryption methods are not.
type Client struct {
	Params he.Parameters
	sk     *he.SecretKey
	pk     *he.PublicKey
	enc    *he.Encryptor
	// sencs holds one secret-key encryptor per core, each drawing from its
	// own stream. A pixel checks one out and puts it back, so no encryptor
	// (its sampler is single-goroutine) is ever shared.
	sencs  chan *he.SymmetricEncryptor
	dec    *he.Decryptor
	scalar *encoding.ScalarEncoder
	packed *encoding.PackedEncoder

	ecdhPriv *ecdh.PrivateKey
}

// NewClient prepares a client with a fresh ephemeral ECDH key.
func NewClient() (*Client, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: client ECDH key: %w", err)
	}
	return &Client{ecdhPriv: priv}, nil
}

// ECDHPublicKey returns the bytes the client sends with its attestation
// challenge.
func (c *Client) ECDHPublicKey() []byte {
	return c.ecdhPriv.PublicKey().Bytes()
}

// CompleteKeyExchange verifies the enclave quote against the verification
// service and the expected nonce, then decrypts the provisioning payload in
// the quote's user data to obtain the HE parameters and keys.
func (c *Client) CompleteKeyExchange(q *attest.Quote, nonce [32]byte, svc *attest.Service) error {
	if err := svc.Verify(q, nonce); err != nil {
		return fmt.Errorf("core: attestation failed: %w", err)
	}
	return c.installProvisionPayload(q.UserData)
}

// InstallProvisionPayload installs keys from a provisioning payload whose
// quote was verified out of band (in-process benchmarks and tests).
// Networked clients should use CompleteKeyExchange instead so the
// attestation check cannot be skipped by accident.
func (c *Client) InstallProvisionPayload(payload []byte) error {
	return c.installProvisionPayload(payload)
}

// installProvisionPayload parses enclavePub || nonce || ciphertext,
// derives the ECDH shared key, and installs the decrypted key material.
func (c *Client) installProvisionPayload(payload []byte) error {
	r := bytes.NewReader(payload)
	readField := func(name string) ([]byte, error) {
		n, err := readU32(r)
		if err != nil {
			return nil, fmt.Errorf("core: provision payload %s length: %w", name, err)
		}
		if int(n) > r.Len() {
			return nil, fmt.Errorf("core: provision payload %s truncated", name)
		}
		out := make([]byte, n)
		if _, err := r.Read(out); err != nil {
			return nil, err
		}
		return out, nil
	}
	ephPub, err := readField("enclave key")
	if err != nil {
		return err
	}
	nonce, err := readField("nonce")
	if err != nil {
		return err
	}
	sealed, err := readField("ciphertext")
	if err != nil {
		return err
	}
	enclaveKey, err := ecdh.P256().NewPublicKey(ephPub)
	if err != nil {
		return fmt.Errorf("core: enclave ECDH key: %w", err)
	}
	shared, err := c.ecdhPriv.ECDH(enclaveKey)
	if err != nil {
		return fmt.Errorf("core: ECDH agreement: %w", err)
	}
	key := sha256.Sum256(append([]byte("hesgx/core/provision/v1"), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	if len(sealed) < gcm.NonceSize() && len(nonce) != gcm.NonceSize() {
		return fmt.Errorf("core: provision payload malformed")
	}
	blob, err := gcm.Open(nil, nonce, sealed, nil)
	if err != nil {
		return fmt.Errorf("core: decrypting key material: %w", err)
	}
	return c.installKeyBlob(blob)
}

func (c *Client) installKeyBlob(blob []byte) error {
	r := bytes.NewReader(blob)
	params, err := he.ReadParameters(r)
	if err != nil {
		return fmt.Errorf("core: key blob parameters: %w", err)
	}
	sk, err := he.ReadSecretKey(r)
	if err != nil {
		return fmt.Errorf("core: key blob secret key: %w", err)
	}
	pk, err := he.ReadPublicKey(r)
	if err != nil {
		return fmt.Errorf("core: key blob public key: %w", err)
	}
	return c.install(params, sk, pk)
}

func (c *Client) install(params he.Parameters, sk *he.SecretKey, pk *he.PublicKey) error {
	enc, err := he.NewEncryptor(pk, ring.NewCryptoSource())
	if err != nil {
		return err
	}
	sencs := make(chan *he.SymmetricEncryptor, runtime.GOMAXPROCS(0))
	for range cap(sencs) {
		senc, err := he.NewSymmetricEncryptor(sk, ring.NewCryptoSource())
		if err != nil {
			return err
		}
		sencs <- senc
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		return err
	}
	scalar, err := encoding.NewScalarEncoder(params)
	if err != nil {
		return err
	}
	c.Params, c.sk, c.pk, c.enc, c.sencs, c.dec, c.scalar = params, sk, pk, enc, sencs, dec, scalar
	return nil
}

// Ready reports whether key material is installed.
func (c *Client) Ready() bool { return c.sk != nil }

// GenerateGaloisKeys generates rotation key-switching keys for the given
// slot-rotation steps under the client's secret key, for upload to an edge
// server ahead of slot-packed inference. baseBits 0 selects the library
// default decomposition.
func (c *Client) GenerateGaloisKeys(steps []int, baseBits int) (*he.GaloisKeys, error) {
	if c.sk == nil {
		return nil, fmt.Errorf("core: no secret key installed")
	}
	kg, err := he.NewKeyGenerator(c.Params, ring.NewCryptoSource())
	if err != nil {
		return nil, err
	}
	return kg.GenGaloisKeys(c.sk, steps, baseBits)
}

// CipherImage is a pixel-per-ciphertext encrypted feature map, the data
// layout of the paper's implementation (each pixel is encoded into a
// polynomial and encrypted; Table II).
type CipherImage struct {
	Channels, Height, Width int
	CTs                     []*he.Ciphertext
	// Scale is the fixed-point scale of the encrypted integers.
	Scale uint64
	// Lanes counts the images slot-packed into each ciphertext: 0 or 1
	// means scalar encoding (one pixel value in the constant coefficient),
	// while Lanes > 1 means CRT slot s of ciphertext p carries pixel p of
	// image s (§VIII). The engine derives per-inference SIMD execution from
	// this, so lane-packed and scalar images flow through the same API.
	Lanes int
	// Packed marks the slot-packed layout: one ciphertext per channel with
	// pixel (y, x) at slot y·Width + x of the rotation hypercube's row 0
	// (EncryptImagePacked). Requires an engine planned with
	// Config.PackedConv; mutually exclusive with Lanes > 1.
	Packed bool
}

// encryptImageScalar is the scalar (pixel-per-ciphertext) encoding path
// behind EncryptImages for a single image.
func (c *Client) encryptImageScalar(img *nn.Tensor, pixelScale uint64) (*CipherImage, error) {
	if !c.Ready() {
		return nil, fmt.Errorf("core: client has no keys; complete the key exchange first")
	}
	if len(img.Shape) != 3 {
		return nil, fmt.Errorf("core: image must be [c, h, w], got %v", img.Shape)
	}
	ints := nn.QuantizeImage(img, float64(pixelScale))
	cts := make([]*he.Ciphertext, len(ints))
	for i, v := range ints {
		pt := c.scalar.Encode(v)
		ct, err := c.enc.Encrypt(pt)
		if err != nil {
			return nil, fmt.Errorf("core: encrypting pixel %d: %w", i, err)
		}
		cts[i] = ct
	}
	return &CipherImage{
		Channels: img.Shape[0], Height: img.Shape[1], Width: img.Shape[2],
		CTs: cts, Scale: pixelScale, Lanes: 1,
	}, nil
}

// EncryptImageSeeded quantizes and encrypts an image like EncryptImage, but
// under the secret key in seed-compressed form: each pixel ships as c0 plus
// a 32-byte expansion seed instead of two polynomials, roughly halving
// upload bytes. The client holds the secret key after the attested exchange
// (§IV-B), so symmetric uploads need no extra trust. The pixels are
// encrypted in parallel, one encryptor per core, and land in pixel order.
func (c *Client) EncryptImageSeeded(img *nn.Tensor, pixelScale uint64) (*SeededCipherImage, error) {
	if !c.Ready() {
		return nil, fmt.Errorf("core: client has no keys; complete the key exchange first")
	}
	if len(img.Shape) != 3 {
		return nil, fmt.Errorf("core: image must be [c, h, w], got %v", img.Shape)
	}
	ints := nn.QuantizeImage(img, float64(pixelScale))
	cts := make([]*he.SeededCiphertext, len(ints))
	sencs := c.sencs
	err := linear.ParallelFor(len(ints), cap(sencs), func(i int) error {
		senc := <-sencs
		defer func() { sencs <- senc }()
		sc, err := senc.EncryptSeeded(c.scalar.Encode(ints[i]))
		if err != nil {
			return fmt.Errorf("core: encrypting pixel %d: %w", i, err)
		}
		cts[i] = sc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SeededCipherImage{
		Channels: img.Shape[0], Height: img.Shape[1], Width: img.Shape[2],
		CTs: cts, Scale: pixelScale,
	}, nil
}

// EncryptImagePacked quantizes pixels at pixelScale and encrypts each
// channel as one slot-packed ciphertext: pixel (y, x) lands at slot
// y·Width + x of the rotation hypercube's row 0, the layout the packed
// conv/pool kernels rotate. Requires a batching-capable plaintext modulus
// and a feature map no larger than n/2 slots. The upload cost collapses
// from Channels·Height·Width ciphertexts to Channels.
func (c *Client) EncryptImagePacked(img *nn.Tensor, pixelScale uint64) (*CipherImage, error) {
	if !c.Ready() {
		return nil, fmt.Errorf("core: client has no keys; complete the key exchange first")
	}
	if len(img.Shape) != 3 {
		return nil, fmt.Errorf("core: image must be [c, h, w], got %v", img.Shape)
	}
	enc, err := c.packedCodec()
	if err != nil {
		return nil, fmt.Errorf("core: packed encoding: %w", err)
	}
	ch, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	if h*w > enc.RowLen() {
		return nil, fmt.Errorf("core: image %dx%d exceeds %d row slots", h, w, enc.RowLen())
	}
	ints := nn.QuantizeImage(img, float64(pixelScale))
	cts := make([]*he.Ciphertext, ch)
	for i := 0; i < ch; i++ {
		pt, err := enc.Encode(ints[i*h*w : (i+1)*h*w])
		if err != nil {
			return nil, fmt.Errorf("core: packing channel %d: %w", i, err)
		}
		ct, err := c.enc.Encrypt(pt)
		if err != nil {
			return nil, fmt.Errorf("core: encrypting channel %d: %w", i, err)
		}
		cts[i] = ct
	}
	return &CipherImage{
		Channels: ch, Height: h, Width: w,
		CTs: cts, Scale: pixelScale, Lanes: 1, Packed: true,
	}, nil
}

// packedCodec lazily builds the rotation-aware slot encoder.
func (c *Client) packedCodec() (*encoding.PackedEncoder, error) {
	if c.packed == nil {
		enc, err := encoding.NewPackedEncoder(c.Params)
		if err != nil {
			return nil, err
		}
		c.packed = enc
	}
	return c.packed, nil
}

// DecryptValues decrypts a batch of scalar ciphertexts to centered values.
func (c *Client) DecryptValues(cts []*he.Ciphertext) ([]int64, error) {
	if !c.Ready() {
		return nil, fmt.Errorf("core: client has no keys")
	}
	out := make([]int64, len(cts))
	for i, ct := range cts {
		pt, err := c.dec.Decrypt(ct)
		if err != nil {
			return nil, fmt.Errorf("core: decrypting result %d: %w", i, err)
		}
		out[i] = c.scalar.Decode(pt)
	}
	return out, nil
}

// DecryptLogits decrypts the returned class scores and rescales them to
// floats using the engine-reported output scale.
func (c *Client) DecryptLogits(cts []*he.Ciphertext, outScale float64) ([]float64, error) {
	ints, err := c.DecryptValues(cts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ints))
	for i, v := range ints {
		out[i] = float64(v) / outScale
	}
	return out, nil
}

// NoiseBudget reports the remaining noise budget of a ciphertext (client
// side, requires the secret key).
func (c *Client) NoiseBudget(ct *he.Ciphertext) (float64, error) {
	if !c.Ready() {
		return 0, fmt.Errorf("core: client has no keys")
	}
	return c.dec.NoiseBudget(ct)
}

// PublicKey returns the client's copy of the HE public key.
func (c *Client) PublicKey() *he.PublicKey { return c.pk }

// RunKeyExchange performs the full §IV-A handshake against a local enclave
// service and verification service: challenge nonce, in-enclave key
// provisioning bound to the client's ECDH key, quote generation, quote
// verification, key installation. It returns the verified quote for
// inspection.
func (c *Client) RunKeyExchange(svc *EnclaveService, verifier *attest.Service) (*attest.Quote, error) {
	nonce, err := attest.NewNonce()
	if err != nil {
		return nil, err
	}
	payload, err := svc.ProvisionKeys(c.ECDHPublicKey())
	if err != nil {
		return nil, err
	}
	quote, err := attest.GenerateQuote(svc.Enclave(), nonce, payload)
	if err != nil {
		return nil, err
	}
	if err := c.CompleteKeyExchange(quote, nonce, verifier); err != nil {
		return nil, err
	}
	return quote, nil
}
