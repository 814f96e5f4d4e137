package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/ring"
)

// TestSeededImageDecryptsLikeLegacy: the seeded upload path must yield the
// same quantized pixels after expansion as the legacy public-key path — the
// engine cannot tell which upload form a cipher image arrived in.
func TestSeededImageDecryptsLikeLegacy(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	img := tinyImage(31)

	legacy, err := client.encryptImageScalar(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := client.EncryptImageSeeded(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := seeded.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if expanded.Channels != legacy.Channels || expanded.Height != legacy.Height ||
		expanded.Width != legacy.Width || expanded.Scale != legacy.Scale {
		t.Fatal("expanded image geometry differs from legacy")
	}
	a, err := client.DecryptValues(legacy.CTs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.DecryptValues(expanded.CTs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d: legacy %d, seeded %d", i, a[i], b[i])
		}
	}
}

// fixedWidthImageV1 hand-assembles the retired v1 network image — dims,
// scale, count, then fixed-width (ECALL ABI) ciphertext frames — the bytes a
// pre-v2 client would still send.
func fixedWidthImageV1(tb testing.TB, im *CipherImage) []byte {
	tb.Helper()
	var buf bytes.Buffer
	writeU32(&buf, uint32(im.Channels))
	writeU32(&buf, uint32(im.Height))
	writeU32(&buf, uint32(im.Width))
	writeU64(&buf, im.Scale)
	batch, err := encodeCiphertextBatch(im.CTs)
	if err != nil {
		tb.Fatal(err)
	}
	buf.Write(batch)
	return buf.Bytes()
}

// TestCipherImageAutoDetectsBothVersions: the network decoder accepts the
// seeded encoding (reported as WireV2, sized exactly as
// SeededCipherImageSize says, decrypting to the public-key path's pixels)
// and refuses the retired v1 encoding of the same image.
func TestCipherImageAutoDetectsBothVersions(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	img := tinyImage(32)

	pk, err := client.encryptImageScalar(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := client.EncryptImageSeeded(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := MarshalSeededCipherImage(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != SeededCipherImageSize(seeded) {
		t.Fatalf("v2 payload %d bytes, SeededCipherImageSize says %d", len(v2), SeededCipherImageSize(seeded))
	}

	if _, _, err := UnmarshalCipherImageAuto(fixedWidthImageV1(t, pk), params); err == nil {
		t.Fatal("v1 payload accepted by the network decoder")
	}
	gotV2, ver, err := UnmarshalCipherImageAuto(v2, params)
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireV2 {
		t.Fatalf("seeded payload detected as version %d", ver)
	}
	p1, err := client.DecryptValues(pk.CTs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := client.DecryptValues(gotV2.CTs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pixel %d decodes differently across upload forms: %d vs %d", i, p1[i], p2[i])
		}
	}
}

// TestPackedCipherImageRoundTrip covers the non-seeded v2 upload shape
// (bit-packed full ciphertexts) through the auto decoder.
func TestPackedCipherImageRoundTrip(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	img := tinyImage(33)

	ci, err := client.encryptImageScalar(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCipherImagePacked(&buf, ci); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != CipherImagePackedSize(ci) {
		t.Fatalf("packed image %d bytes, CipherImagePackedSize says %d", buf.Len(), CipherImagePackedSize(ci))
	}
	got, ver, err := UnmarshalCipherImageAuto(buf.Bytes(), params)
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireV2 {
		t.Fatalf("packed payload detected as version %d", ver)
	}
	for i := range ci.CTs {
		for p := range ci.CTs[i].Polys {
			if !got.CTs[i].Polys[p].Equal(ci.CTs[i].Polys[p]) {
				t.Fatalf("ciphertext %d poly %d not bit-identical after packed round trip", i, p)
			}
		}
	}
}

// TestCiphertextBatchAnyBothFormats: reply decoding round-trips the packed
// batch bit-identically at the size CiphertextBatchPackedSize says, smaller
// than the fixed-width ECALL batch, and refuses that ECALL batch.
func TestCiphertextBatchAnyBothFormats(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	img := tinyImage(34)
	ci, err := client.encryptImageScalar(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	cts := ci.CTs[:4]

	fixed, err := encodeCiphertextBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := MarshalCiphertextBatchPacked(cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != CiphertextBatchPackedSize(cts, 0, 0) {
		t.Fatalf("packed batch %d bytes, CiphertextBatchPackedSize says %d", len(packed), CiphertextBatchPackedSize(cts, 0, 0))
	}
	if len(packed) >= len(fixed) {
		t.Fatalf("packed batch %dB not smaller than fixed-width %dB", len(packed), len(fixed))
	}
	if _, err := UnmarshalCiphertextBatchAny(fixed, params); err == nil {
		t.Fatal("fixed-width ECALL batch accepted by the network decoder")
	}
	got, err := UnmarshalCiphertextBatchAny(packed, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cts) {
		t.Fatalf("got %d cts, want %d", len(got), len(cts))
	}
	for i := range cts {
		for p := range cts[i].Polys {
			if !got[i].Polys[p].Equal(cts[i].Polys[p]) {
				t.Fatalf("ciphertext %d poly %d mismatch", i, p)
			}
		}
	}
}

// TestSeededUploadReductionPaperImage is the headline acceptance number: a
// 28×28 single-channel cipher image (the paper's MNIST input, 784
// ciphertexts) at the production parameter set must shrink at least 2× when
// uploaded in seeded form instead of as fixed-width public-key ciphertexts.
func TestSeededUploadReductionPaperImage(t *testing.T) {
	params, err := DefaultHybridParameters()
	if err != nil {
		t.Fatal(err)
	}
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(35))
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(36))
	if err != nil {
		t.Fatal(err)
	}
	senc, err := he.NewSymmetricEncryptor(sk, ring.NewSeededSource(37))
	if err != nil {
		t.Fatal(err)
	}

	const pixels = 28 * 28
	legacy := &CipherImage{Channels: 1, Height: 28, Width: 28, Scale: 255,
		CTs: make([]*he.Ciphertext, pixels)}
	seeded := &SeededCipherImage{Channels: 1, Height: 28, Width: 28, Scale: 255,
		CTs: make([]*he.SeededCiphertext, pixels)}
	for i := 0; i < pixels; i++ {
		pt := he.NewPlaintext(params)
		pt.Poly.Coeffs[0] = uint64(i) % 256
		if legacy.CTs[i], err = enc.Encrypt(pt); err != nil {
			t.Fatal(err)
		}
		if seeded.CTs[i], err = senc.EncryptSeeded(pt); err != nil {
			t.Fatal(err)
		}
	}

	v1 := fixedWidthImageV1(t, legacy)
	v2, err := MarshalSeededCipherImage(seeded)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(v1)) / float64(len(v2))
	t.Logf("28×28 upload: fixed-width %d bytes, seeded %d bytes — %.2f× reduction",
		len(v1), len(v2), ratio)
	if ratio < 2 {
		t.Fatalf("seeded upload reduction %.2f× below the required 2× (v1 %dB, v2 %dB)",
			ratio, len(v1), len(v2))
	}

	// The smaller payload still decodes to an evaluable image that decrypts
	// to the same pixels.
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		t.Fatal(err)
	}
	got, ver, err := UnmarshalCipherImageAuto(v2, params)
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireV2 {
		t.Fatalf("seeded payload detected as version %d", ver)
	}
	for _, i := range []int{0, 1, 255, 256, pixels - 1} {
		pt, err := dec.Decrypt(got.CTs[i])
		if err != nil {
			t.Fatal(err)
		}
		if pt.Poly.Coeffs[0] != uint64(i)%256 {
			t.Fatalf("pixel %d decrypts to %d, want %d", i, pt.Poly.Coeffs[0], uint64(i)%256)
		}
	}
}

// TestCipherImageAutoRejectsHostile pins decoder behaviour on malformed v2
// payloads: bad flags, count/geometry mismatch, truncation.
func TestCipherImageAutoRejectsHostile(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	seeded, err := client.EncryptImageSeeded(tinyImage(38), 63)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalSeededCipherImage(seeded)
	if err != nil {
		t.Fatal(err)
	}

	bad := bytes.Clone(raw)
	bad[4] = 0 // clear flags
	if _, _, err := UnmarshalCipherImageAuto(bad, params); err == nil {
		t.Fatal("flagless v2 payload accepted")
	}
	bad = bytes.Clone(raw)
	bad[25] ^= 0x01 // count no longer matches geometry
	if _, _, err := UnmarshalCipherImageAuto(bad, params); err == nil {
		t.Fatal("count/geometry mismatch accepted")
	}
	if _, _, err := UnmarshalCipherImageAuto(raw[:len(raw)-5], params); err == nil {
		t.Fatal("truncated v2 payload accepted")
	}
}

// TestCipherImageV2RejectsHugeCount: a ~30-byte hostile header whose
// geometry-consistent count runs to billions must error before any
// count-sized allocation — the decoder may not trust the count until it is
// cross-checked against the bytes actually present.
func TestCipherImageV2RejectsHugeCount(t *testing.T) {
	params := testParams(t)
	for _, flags := range []byte{imgFlagSeeded, imgFlagPacked} {
		// 1023 × 16384 × 256 ≈ 4.29e9 elements: geometry-valid, count-valid,
		// and ~34 GB of slice header alone if allocated up front.
		var buf bytes.Buffer
		c, h, w := 1023, 1<<14, 256
		if err := writeImageV2Header(&buf, flags, c, h, w, 63, c*h*w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := UnmarshalCipherImageAuto(buf.Bytes(), params); err == nil {
			t.Fatalf("flags %#x: huge element count accepted", flags)
		}
		// A plausible count the payload cannot hold must fail the same way:
		// 784 claimed elements, zero element bytes behind the header.
		buf.Reset()
		if err := writeImageV2Header(&buf, flags, 1, 28, 28, 63, 28*28); err != nil {
			t.Fatal(err)
		}
		if _, _, err := UnmarshalCipherImageAuto(buf.Bytes(), params); err == nil {
			t.Fatalf("flags %#x: element count beyond payload accepted", flags)
		}
	}
	// Same bound on the v2 batch decoder.
	var buf bytes.Buffer
	writeU32(&buf, ciphertextBatchMagic)
	buf.Write([]byte{imgFlagPacked, 0, 0})
	writeU32(&buf, uint32(maxBatchCiphertexts))
	if _, err := UnmarshalCiphertextBatchAny(buf.Bytes(), params); err == nil {
		t.Fatal("batch count beyond payload accepted")
	}
}

// TestCipherImageAutoRefusesForeignEncodings: every header the writers never
// emit — unknown flag bits, seeded|packed, slot-packed without packed, bare
// or on an otherwise valid image — and the retired or foreign element
// encodings come back as errors. The bare headers claim a
// geometry-consistent multi-billion element count, so a decoder that reached
// its count-sized allocation before refusing the flags would be caught by
// the allocation bound (or the OOM killer).
func TestCipherImageAutoRefusesForeignEncodings(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	pk, err := client.encryptImageScalar(tinyImage(39), 63)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := client.EncryptImageSeeded(tinyImage(39), 63)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range foreignEncodings(t, pk, seeded) {
		name, payload := c.name, c.payload
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ver, err := UnmarshalCipherImageAuto(payload, params)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if ver != WireV2 {
			t.Errorf("%s: version %d, want the one network version", name, ver)
		}
		// The fixed-width-element case legitimately allocates for the
		// ciphertexts its payload really holds; everything else must be
		// refused from the header.
		if got := after.TotalAlloc - before.TotalAlloc; name != "fixed-width element in packed image" && got > 1<<16 {
			t.Errorf("%s: refused after allocating %d bytes", name, got)
		}
	}
}

// foreignEncodings builds the payloads the network image decoder must refuse,
// shared by the table test and the fuzz seed corpus.
func foreignEncodings(tb testing.TB, pk *CipherImage, seeded *SeededCipherImage) []foreignEncoding {
	tb.Helper()
	header := func(flags byte) []byte {
		var buf bytes.Buffer
		c, h, w := 1023, 1<<14, 256
		if err := writeImageV2Header(&buf, flags, c, h, w, 63, c*h*w); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	// Whole, otherwise valid images whose flags byte gained a bit.
	reflag := func(valid []byte, flags byte) []byte {
		b := bytes.Clone(valid)
		b[4] = flags
		return b
	}
	validSeeded, err := MarshalSeededCipherImage(seeded)
	if err != nil {
		tb.Fatal(err)
	}
	var validPacked bytes.Buffer
	if err := WriteCipherImagePacked(&validPacked, pk); err != nil {
		tb.Fatal(err)
	}
	// A valid packed header over fixed-width (ECALL ABI) ciphertext frames.
	var mixed bytes.Buffer
	if err := writeImageV2Header(&mixed, imgFlagPacked, pk.Channels, pk.Height, pk.Width, pk.Scale, len(pk.CTs)); err != nil {
		tb.Fatal(err)
	}
	for _, ct := range pk.CTs {
		if err := ct.Write(&mixed); err != nil {
			tb.Fatal(err)
		}
	}
	return []foreignEncoding{
		{"no flags", header(0)},
		{"seeded|packed", header(imgFlagSeeded | imgFlagPacked)},
		{"seeded|slot-packed", header(imgFlagSeeded | imgFlagSlotPacked)},
		{"slot-packed alone", header(imgFlagSlotPacked)},
		{"all three", header(imgFlagSeeded | imgFlagPacked | imgFlagSlotPacked)},
		{"unknown bit beside seeded", header(imgFlagSeeded | 1<<3)},
		{"unknown high bit beside packed", header(imgFlagPacked | 1<<7)},
		{"valid seeded image flagged seeded|packed", reflag(validSeeded, imgFlagSeeded|imgFlagPacked)},
		{"valid seeded image with an unknown bit", reflag(validSeeded, imgFlagSeeded|1<<3)},
		{"valid packed image with an unknown bit", reflag(validPacked.Bytes(), imgFlagPacked|1<<7)},
		{"v1 image", fixedWidthImageV1(tb, pk)},
		{"fixed-width element in packed image", mixed.Bytes()},
		{"seeded element at full width", unroundedSeededImage(tb, seeded, true)},
		{"rounded seeded element without the rounded flag", unroundedSeededImage(tb, seeded, false)},
	}
}

// unroundedSeededImage re-encodes a seeded image with every element flagged
// packed but not rounded — the frame the writer emitted before uploads were
// rounded when fullWidth (c0 at CoeffBits(q)), a rounded c0 that lost its
// flag otherwise.
func unroundedSeededImage(tb testing.TB, im *SeededCipherImage, fullWidth bool) []byte {
	tb.Helper()
	valid, err := MarshalSeededCipherImage(im)
	if err != nil {
		tb.Fatal(err)
	}
	buf := bytes.NewBuffer(bytes.Clone(valid[:cipherImageV2HeaderSize]))
	for _, sc := range im.CTs {
		elem, err := he.MarshalSeededCiphertext(sc)
		if err != nil {
			tb.Fatal(err)
		}
		elem[4] = 1 // the packed flag alone
		buf.Write(elem[:25+he.SeedSize])
		d := sc.Params.SeededDropBits()
		if fullWidth {
			d = 0
		}
		if err := ring.WritePolyPacked(buf, sc.C0, sc.Params.Q, d); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSeededImageRefusesUnroundedFrames: an upload whose seeded elements lack
// the rounded flag — full-width c0 or not — is refused with the typed
// *he.SeededFlagsError, which the reader returns from the flags byte before
// it reads any of the element's body.
func TestSeededImageRefusesUnroundedFrames(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	si, err := client.EncryptImageSeeded(tinyImage(40), 63)
	if err != nil {
		t.Fatal(err)
	}
	for _, fullWidth := range []bool{true, false} {
		_, _, err := UnmarshalCipherImageAuto(unroundedSeededImage(t, si, fullWidth), params)
		var flagsErr *he.SeededFlagsError
		if !errors.As(err, &flagsErr) || flagsErr.Flags != 1 {
			t.Fatalf("full width %v: got %v, want a *he.SeededFlagsError for flags 0x1", fullWidth, err)
		}
	}
}

// TestReplyBatchRounding: a batch written at drops (d0, d1) is exactly
// CiphertextBatchPackedSize bytes, smaller than the lossless batch, decodes
// to ciphertexts within 2^(d−1) of the originals (cyclically mod q) that
// decrypt to the same plaintexts, and the decoder refuses drops that leave no
// bit and wire values above the top bucket (q−1) >> d, whose lift would
// pass q.
func TestReplyBatchRounding(t *testing.T) {
	params := testParams(t)
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(41))
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(42))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		t.Fatal(err)
	}
	var cts []*he.Ciphertext
	for v := uint64(0); v < 4; v++ {
		ct, err := enc.EncryptScalar(v * 1000)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	top := he.NewCiphertext(params, 2)
	for _, p := range top.Polys {
		for i := range p.Coeffs {
			p.Coeffs[i] = params.Q - 1
		}
	}
	d0, d1 := params.FreshNoiseBound().MaxRound()
	if d0 == 0 || d1 == 0 {
		t.Fatalf("fresh bound grants drops (%d, %d)", d0, d1)
	}
	var buf bytes.Buffer
	if err := WriteCiphertextBatchPacked(&buf, append(cts, top), d0, d1); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), CiphertextBatchPackedSize(append(cts, top), d0, d1); got != want {
		t.Fatalf("rounded batch %d B, CiphertextBatchPackedSize says %d", got, want)
	}
	lossless, err := MarshalCiphertextBatchPacked(append(cts, top))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(lossless) {
		t.Fatalf("rounded batch %d B not smaller than lossless %d B", buf.Len(), len(lossless))
	}
	rounded := bytes.Clone(buf.Bytes())
	got, err := UnmarshalCiphertextBatchAny(rounded, params)
	if err != nil {
		t.Fatal(err)
	}
	mod := params.Ring().Mod
	for i, ct := range append(cts, top) {
		for p, d := range []int{d0, d1} {
			half := int64(1) << uint(d-1)
			for j, c := range got[i].Polys[p].Coeffs {
				if diff := mod.Centered(mod.Sub(c, ct.Polys[p].Coeffs[j])); diff > half || diff < -half {
					t.Fatalf("ciphertext %d poly %d coefficient %d moved by %d, beyond 2^(d−1)", i, p, j, diff)
				}
			}
		}
		if i < len(cts) {
			want, err := dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := dec.Decrypt(got[i]); err != nil || !pt.Poly.Equal(want.Poly) {
				t.Fatalf("rounded ciphertext %d decrypts differently (err %v)", i, err)
			}
		}
	}

	width := ring.CoeffBits(params.Q)
	for _, d := range [][2]byte{{byte(width), 0}, {0, byte(width)}, {255, 255}} {
		b := bytes.Clone(rounded)
		b[5], b[6] = d[0], d[1]
		if _, err := UnmarshalCiphertextBatchAny(b, params); err == nil {
			t.Fatalf("drops (%d, %d) at a %d-bit modulus accepted", d[0], d[1], width)
		}
	}
	// Every wire bit of the last element's c1 set: values above the top
	// bucket.
	over := bytes.Clone(rounded)
	for i := len(over) - (params.N*(width-d1)+7)/8; i < len(over); i++ {
		over[i] = 0xFF
	}
	if _, err := UnmarshalCiphertextBatchAny(over, params); err == nil {
		t.Fatal("wire values above (q−1) >> d accepted")
	}
}

type foreignEncoding struct {
	name    string
	payload []byte
}
