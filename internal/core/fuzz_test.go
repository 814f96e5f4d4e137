package core

import (
	"bytes"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// FuzzUnmarshalCipherImageAuto drives the network-facing cipher-image
// decoder with hostile bytes: valid seeded and packed images, the retired v1
// encoding, headers with flag combinations no writer emits, and a
// fixed-width (ECALL ABI) ciphertext inside a packed image. Any input must
// error or produce a geometry-consistent, fully validated image — never
// panic, and never allocate count-sized storage the payload cannot back
// (the header carries an attacker-controlled count).
// Setup stays deliberately light (no attestation, no evaluation keys): the
// instrumented fuzz workers re-run it per process.
func FuzzUnmarshalCipherImageAuto(f *testing.F) {
	params := testParams(f)
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(1))
	if err != nil {
		f.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(2))
	if err != nil {
		f.Fatal(err)
	}
	sym, err := he.NewSymmetricEncryptor(sk, ring.NewSeededSource(3))
	if err != nil {
		f.Fatal(err)
	}
	ci := &CipherImage{Channels: 1, Height: 2, Width: 2, Scale: 63}
	si := &SeededCipherImage{Channels: 1, Height: 2, Width: 2, Scale: 63}
	for v := uint64(0); v < 4; v++ {
		ct, err := enc.EncryptScalar(v)
		if err != nil {
			f.Fatal(err)
		}
		ci.CTs = append(ci.CTs, ct)
		pt := he.NewPlaintext(params)
		pt.Poly.Coeffs[0] = v
		sc, err := sym.EncryptSeeded(pt)
		if err != nil {
			f.Fatal(err)
		}
		si.CTs = append(si.CTs, sc)
	}
	legacy := fixedWidthImageV1(f, ci)
	seeded, err := MarshalSeededCipherImage(si)
	if err != nil {
		f.Fatal(err)
	}
	var packed bytes.Buffer
	if err := WriteCipherImagePacked(&packed, ci); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(seeded)
	f.Add(packed.Bytes())
	f.Add([]byte{})
	// Bare v2 header: claims elements with no bytes behind them.
	f.Add(bytes.Clone(seeded[:cipherImageV2HeaderSize]))
	// Geometry-consistent multi-billion element count in a ~30-byte frame —
	// the remote-OOM shape the decoder must reject before allocating.
	var hostile bytes.Buffer
	c, h, w := 1023, 1<<14, 256
	if err := writeImageV2Header(&hostile, imgFlagSeeded, c, h, w, 63, c*h*w); err != nil {
		f.Fatal(err)
	}
	f.Add(hostile.Bytes())
	for _, c := range foreignEncodings(f, ci, si) {
		f.Add(c.payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		im, _, err := UnmarshalCipherImageAuto(data, params)
		if err != nil {
			return
		}
		want := im.Channels * im.Height * im.Width
		if im.Packed {
			want = im.Channels
		}
		if want != len(im.CTs) {
			t.Fatalf("accepted image geometry %dx%dx%d holds %d ciphertexts",
				im.Channels, im.Height, im.Width, len(im.CTs))
		}
		for i, ct := range im.CTs {
			if ct == nil {
				t.Fatalf("accepted image has nil ciphertext %d", i)
			}
			if verr := ct.Validate(); verr != nil {
				t.Fatalf("accepted ciphertext %d fails validation: %v", i, verr)
			}
		}
	})
}

// FuzzPoolEnvelope feeds arbitrary bytes to the three whole-map pool ECALLs of
// a zero-cost enclave. The untrusted host writes every byte of the envelope —
// geometry, values per ciphertext, output layout — and of the batch behind it,
// and the process has no recover(): any input must come back as an error or a
// reply, never a panic.
func FuzzPoolEnvelope(f *testing.F) {
	svc := packedTestService(f, 53)
	params := svc.Params()
	enc, err := he.NewEncryptor(svc.PublicKey(), ring.NewSeededSource(5))
	if err != nil {
		f.Fatal(err)
	}
	var cts []*he.Ciphertext
	for v := uint64(0); v < 4; v++ {
		ct, err := enc.EncryptScalar(v)
		if err != nil {
			f.Fatal(err)
		}
		cts = append(cts, ct)
	}
	envelope := func(req nonlinearRequest, cts []*he.Ciphertext) []byte {
		b, err := req.marshalWithBatch(cts)
		if err != nil {
			f.Fatal(err)
		}
		return bytes.Clone(b)
	}
	base := nonlinearRequest{InScale: 63, OutScale: 256, Divisor: 4, Width: 2, Height: 2, Channels: 1, Window: 2}
	perValue := envelope(base, cts)
	f.Add(uint8(0), perValue)
	f.Add(uint8(1), perValue)
	coeff := base
	coeff.CoeffIn, coeff.CoeffOut, coeff.Act = 4, 1, uint32(nn.ReLU)
	f.Add(uint8(0), envelope(coeff, cts[:1]))
	coeff.CoeffIn = uint32(params.N) + 1
	f.Add(uint8(1), envelope(coeff, cts[:1]))
	unpack := base
	unpack.Lanes, unpack.CoeffOut = 2, 1
	f.Add(uint8(2), envelope(unpack, cts[:1]))
	f.Add(uint8(2), hostileEnvelope(unpackRequest))
	f.Add(uint8(0), perValue[:nonlinearRequestHeaderSize+3])
	f.Add(uint8(1), []byte{})

	ecalls := []string{ECallPoolFull, ECallPoolMax, ECallPoolUnpack}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		out, err := svc.Enclave().ECall(ecalls[int(which)%len(ecalls)], data)
		if err != nil {
			return
		}
		if _, err := decodeCiphertextBatch(out, params); err != nil {
			t.Fatalf("accepted request produced an undecodable batch: %v", err)
		}
	})
}

// FuzzUnmarshalCiphertextBatchAny drives the client's reply decoder with
// hostile bytes: lossless and rounded batches, drop counts that would leave a
// coefficient no bit (CoeffBits(q), 255), frames whose every wire value sits
// in the top bucket (q−1) >> d — the one whose lift wraps past q — and frames
// whose values overflow it. Any input must error or decode to fully
// validated ciphertexts that re-encode at the header's drops — never panic,
// and never allocate for a count the payload cannot back.
func FuzzUnmarshalCiphertextBatchAny(f *testing.F) {
	params := testParams(f)
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(4))
	if err != nil {
		f.Fatal(err)
	}
	_, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(5))
	if err != nil {
		f.Fatal(err)
	}
	var cts []*he.Ciphertext
	for v := uint64(0); v < 3; v++ {
		ct, err := enc.EncryptScalar(v)
		if err != nil {
			f.Fatal(err)
		}
		cts = append(cts, ct)
	}
	// The drops a plan grants an FC output over 64 fresh inputs.
	d0, d1 := params.FreshNoiseBound().WeightedSum(64, 64).AddPlain().MaxRound()
	batch := func(cts []*he.Ciphertext, d0, d1 int) []byte {
		var buf bytes.Buffer
		if err := WriteCiphertextBatchPacked(&buf, cts, d0, d1); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	lossless, err := MarshalCiphertextBatchPacked(cts)
	if err != nil {
		f.Fatal(err)
	}
	rounded := batch(cts, d0, d1)
	f.Add(lossless)
	f.Add(rounded)
	width := ring.CoeffBits(params.Q)
	for _, d := range [][2]byte{{byte(width), 0}, {0, byte(width)}, {255, 255}, {byte(width - 1), byte(width - 1)}} {
		b := bytes.Clone(rounded)
		b[5], b[6] = d[0], d[1]
		f.Add(b)
	}
	top := he.NewCiphertext(params, 2)
	for _, p := range top.Polys {
		for i := range p.Coeffs {
			p.Coeffs[i] = params.Q - 1
		}
	}
	f.Add(batch([]*he.Ciphertext{top}, d0, d1))
	over := batch([]*he.Ciphertext{top}, d0, d1)
	for i := ciphertextBatchHeaderSize + 29 + 4; i < len(over); i++ {
		over[i] = 0xFF
	}
	f.Add(over)
	f.Add(rounded[:ciphertextBatchHeaderSize])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCiphertextBatchAny(data, params)
		if err != nil {
			return
		}
		for i, ct := range got {
			if verr := ct.Validate(); verr != nil {
				t.Fatalf("accepted ciphertext %d fails validation: %v", i, verr)
			}
		}
		d0, d1 := int(data[5]), int(data[6])
		var buf bytes.Buffer
		if err := WriteCiphertextBatchPacked(&buf, got, d0, d1); err != nil {
			t.Fatalf("re-encoding an accepted batch at (%d, %d): %v", d0, d1, err)
		}
		again, err := UnmarshalCiphertextBatchAny(buf.Bytes(), params)
		if err != nil || len(again) != len(got) {
			t.Fatalf("re-decoding an accepted batch: %d of %d ciphertexts, %v", len(again), len(got), err)
		}
	})
}
