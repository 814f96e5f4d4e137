package core

import (
	"bytes"
	"fmt"
	"io"

	"hesgx/internal/he"
	"hesgx/internal/ring"
)

// Cipher-image network encoding — the one format a socket carries. A
// payload opens with a magic word and a flags byte, then the geometry, the
// fixed-point scale and an element count, followed by that many elements:
// either seed-compressed symmetric ciphertexts (uploads from the key holder:
// c0, less its he.Parameters.SeededDropBits low bits, + 32-byte seed instead
// of two polynomials) or bit-packed two-polynomial ciphertexts at full
// width. The fixed-width ciphertext codec (he.Ciphertext.Write,
// encodeCiphertextBatch) is the ECALL ABI only and is refused here.
const (
	// cipherImageMagicV2 tags a cipher-image payload ("IMG2").
	cipherImageMagicV2 = uint32(0x32474D49)
	// ciphertextBatchMagic tags a ciphertext-batch payload ("CTB3": the
	// header carries the reply's drop counts).
	ciphertextBatchMagic = uint32(0x33425443)
)

// Cipher-image flags. A valid header sets exactly one of imgFlagSeeded and
// imgFlagPacked, imgFlagSlotPacked only beside imgFlagPacked, and no other
// bit.
const (
	// imgFlagSeeded: elements are he.SeededCiphertext frames.
	imgFlagSeeded byte = 1 << 0
	// imgFlagPacked: elements are packed he.Ciphertext frames.
	imgFlagPacked byte = 1 << 1
	// imgFlagSlotPacked: the image uses the slot-packed layout (one
	// ciphertext per channel, pixel (y, x) at slot y·Width + x), so the
	// element count is Channels rather than Channels·Height·Width.
	imgFlagSlotPacked byte = 1 << 2
)

// validImageFlags reports whether flags is one of the three combinations a
// writer emits: seeded, packed, or packed|slot-packed.
func validImageFlags(flags byte) bool {
	return flags == imgFlagSeeded || flags == imgFlagPacked || flags == imgFlagPacked|imgFlagSlotPacked
}

// WireVersion identifies the cipher-image encoding a payload used. One
// encoding exists; the type survives as UnmarshalCipherImageAuto's middle
// return value.
type WireVersion uint8

// WireV2 is the seeded/bit-packed network format.
const WireV2 WireVersion = 2

// validateGeometry bounds deserialized image dimensions.
func validateGeometry(channels, height, width int) error {
	if channels <= 0 || height <= 0 || width <= 0 ||
		channels > 1<<10 || height > 1<<14 || width > 1<<14 {
		return fmt.Errorf("core: implausible cipher image geometry %dx%dx%d", channels, height, width)
	}
	return nil
}

// boundElementCount rejects element counts that are implausible outright or
// that the remaining payload cannot possibly hold at minSize bytes per
// element. Counts are attacker-controlled (geometry alone admits products up
// to 2^38), so a tiny hostile frame must error here, before any count-sized
// allocation — not OOM the server.
func boundElementCount(count uint32, minSize, remaining int) error {
	if count > maxBatchCiphertexts {
		return fmt.Errorf("core: implausible ciphertext count %d", count)
	}
	if minSize > 0 && int(count) > remaining/minSize {
		return fmt.Errorf("core: %d ciphertexts cannot fit in %d payload bytes (min %d bytes each)",
			count, remaining, minSize)
	}
	return nil
}

// SeededCipherImage is a pixel-per-ciphertext encrypted feature map in
// seed-compressed upload form: every element is a symmetric encryption
// carrying c0 plus its expansion seed. Expand on receipt to obtain the
// evaluable CipherImage.
type SeededCipherImage struct {
	Channels, Height, Width int
	CTs                     []*he.SeededCiphertext
	// Scale is the fixed-point scale of the encrypted integers.
	Scale uint64
}

// Expand reconstructs the full cipher image by expanding every seed.
func (im *SeededCipherImage) Expand() (*CipherImage, error) {
	cts := make([]*he.Ciphertext, len(im.CTs))
	for i, sc := range im.CTs {
		ct, err := sc.Expand()
		if err != nil {
			return nil, fmt.Errorf("core: expanding seeded ciphertext %d: %w", i, err)
		}
		cts[i] = ct
	}
	return &CipherImage{
		Channels: im.Channels, Height: im.Height, Width: im.Width,
		CTs: cts, Scale: im.Scale,
	}, nil
}

// cipherImageV2HeaderSize is [magic u32][flags u8][c u32][h u32][w u32]
// [scale u64][count u32].
const cipherImageV2HeaderSize = 4 + 1 + 4 + 4 + 4 + 8 + 4

// SeededCipherImageSize returns the exact byte size WriteSeededCipherImage
// will produce, so callers can length-prefix without buffering the payload.
func SeededCipherImageSize(im *SeededCipherImage) int {
	n := cipherImageV2HeaderSize
	for _, sc := range im.CTs {
		n += sc.PackedSize()
	}
	return n
}

// writeImageV2Header emits the cipher-image preamble.
func writeImageV2Header(w io.Writer, flags byte, channels, height, width int, scale uint64, count int) error {
	var hdr [cipherImageV2HeaderSize]byte
	putU32(hdr[0:], cipherImageMagicV2)
	hdr[4] = flags
	putU32(hdr[5:], uint32(channels))
	putU32(hdr[9:], uint32(height))
	putU32(hdr[13:], uint32(width))
	putU64(hdr[17:], scale)
	putU32(hdr[25:], uint32(count))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: write cipher image header: %w", err)
	}
	return nil
}

// WriteSeededCipherImage streams a seeded cipher image to w without
// materializing an intermediate buffer.
func WriteSeededCipherImage(w io.Writer, im *SeededCipherImage) error {
	if im == nil {
		return fmt.Errorf("core: nil seeded cipher image")
	}
	if err := writeImageV2Header(w, imgFlagSeeded, im.Channels, im.Height, im.Width, im.Scale, len(im.CTs)); err != nil {
		return err
	}
	for i, sc := range im.CTs {
		if sc == nil {
			return fmt.Errorf("core: nil seeded ciphertext %d", i)
		}
		if err := sc.Write(w); err != nil {
			return fmt.Errorf("core: encoding seeded ciphertext %d: %w", i, err)
		}
	}
	return nil
}

// MarshalSeededCipherImage renders a seeded cipher image to bytes.
func MarshalSeededCipherImage(im *SeededCipherImage) ([]byte, error) {
	if im == nil {
		return nil, fmt.Errorf("core: nil seeded cipher image")
	}
	buf := bytes.NewBuffer(make([]byte, 0, SeededCipherImageSize(im)))
	if err := WriteSeededCipherImage(buf, im); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CipherImagePackedSize returns the exact byte size of the packed
// (non-seeded) encoding of im.
func CipherImagePackedSize(im *CipherImage) int {
	n := cipherImageV2HeaderSize
	for _, ct := range im.CTs {
		n += ct.PackedSize(0, 0)
	}
	return n
}

// WriteCipherImagePacked streams im in the bit-packed form — the upload
// shape for senders that hold only the public key (full two-poly
// ciphertexts, but ceil(log2 q)-bit coefficients).
func WriteCipherImagePacked(w io.Writer, im *CipherImage) error {
	if im == nil {
		return fmt.Errorf("core: nil cipher image")
	}
	flags := imgFlagPacked
	if im.Packed {
		flags |= imgFlagSlotPacked
	}
	if err := writeImageV2Header(w, flags, im.Channels, im.Height, im.Width, im.Scale, len(im.CTs)); err != nil {
		return err
	}
	for i, ct := range im.CTs {
		if ct == nil {
			return fmt.Errorf("core: nil ciphertext %d", i)
		}
		if err := ct.WritePacked(w, 0, 0); err != nil {
			return fmt.Errorf("core: encoding packed ciphertext %d: %w", i, err)
		}
	}
	return nil
}

// UnmarshalCipherImageAuto is the network image decoder. Seeded payloads are
// expanded to full ciphertexts (one seed expansion per element) before
// return. The name and the middle return value (always WireV2) are kept for
// the frozen benchmark ledger, which compiles against them; both go at the
// next [benchmark] PR.
func UnmarshalCipherImageAuto(b []byte, params he.Parameters) (*CipherImage, WireVersion, error) {
	r := bytes.NewReader(b)
	if magic, err := readU32(r); err != nil || magic != cipherImageMagicV2 {
		return nil, WireV2, fmt.Errorf("core: not a cipher image (bad magic)")
	}
	flags, err := r.ReadByte()
	if err != nil {
		return nil, WireV2, fmt.Errorf("core: cipher image flags: %w", err)
	}
	if !validImageFlags(flags) {
		return nil, WireV2, fmt.Errorf("core: cipher image with invalid flags %#x (want seeded, packed, or packed|slot-packed)", flags)
	}
	im, err := readCipherImageBody(r, flags, params)
	return im, WireV2, err
}

// readCipherImageBody decodes what follows a validated flags byte.
func readCipherImageBody(r *bytes.Reader, flags byte, params he.Parameters) (*CipherImage, error) {
	var dims [3]uint32
	var err error
	for i := range dims {
		if dims[i], err = readU32(r); err != nil {
			return nil, fmt.Errorf("core: cipher image dims: %w", err)
		}
	}
	scale, err := readU64(r)
	if err != nil {
		return nil, fmt.Errorf("core: cipher image scale: %w", err)
	}
	channels, height, width := int(dims[0]), int(dims[1]), int(dims[2])
	if err := validateGeometry(channels, height, width); err != nil {
		return nil, err
	}
	count, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("core: cipher image count: %w", err)
	}
	slotPacked := flags&imgFlagSlotPacked != 0
	wantCount := channels * height * width
	if slotPacked {
		// Slot-packed layout: one ciphertext per channel.
		wantCount = channels
	}
	if int(count) != wantCount {
		return nil, fmt.Errorf("core: cipher image has %d ciphertexts for geometry %dx%dx%d",
			count, channels, height, width)
	}
	if flags == imgFlagSeeded {
		if err := boundElementCount(count, he.SeededCiphertextWireSize(params), r.Len()); err != nil {
			return nil, err
		}
		im := &SeededCipherImage{Channels: channels, Height: height, Width: width, Scale: scale}
		im.CTs = make([]*he.SeededCiphertext, count)
		for i := range im.CTs {
			sc, err := he.ReadSeededCiphertext(r, params)
			if err != nil {
				return nil, fmt.Errorf("core: decoding seeded ciphertext %d: %w", i, err)
			}
			im.CTs[i] = sc
		}
		return im.Expand()
	}
	cts, err := readPackedCiphertexts(r, count, params, 0, 0)
	if err != nil {
		return nil, err
	}
	return &CipherImage{Channels: channels, Height: height, Width: width, Scale: scale, Packed: slotPacked, CTs: cts}, nil
}

// readPackedCiphertexts decodes count packed ciphertexts at drops (d0, d1),
// refusing counts the remaining payload cannot hold before allocating for
// them.
func readPackedCiphertexts(r *bytes.Reader, count uint32, params he.Parameters, d0, d1 int) ([]*he.Ciphertext, error) {
	if err := boundElementCount(count, he.MinCiphertextWireSize(params, d0, d1), r.Len()); err != nil {
		return nil, err
	}
	cts := make([]*he.Ciphertext, count)
	for i := range cts {
		ct, err := he.ReadCiphertextPacked(r, params, d0, d1)
		if err != nil {
			return nil, fmt.Errorf("core: decoding packed ciphertext %d: %w", i, err)
		}
		cts[i] = ct
	}
	return cts, nil
}

// ciphertextBatchHeaderSize is [magic u32][flags u8][d0 u8][d1 u8]
// [count u32].
const ciphertextBatchHeaderSize = 4 + 1 + 2 + 4

// CiphertextBatchPackedSize returns the exact encoded size of the packed
// batch format for cts at drops (d0, d1).
func CiphertextBatchPackedSize(cts []*he.Ciphertext, d0, d1 int) int {
	n := ciphertextBatchHeaderSize
	for _, ct := range cts {
		n += ct.PackedSize(d0, d1)
	}
	return n
}

// WriteCiphertextBatchPacked streams a bit-packed ciphertext batch — the
// logits of an inference reply:
// [magic u32][flags u8][d0 u8][d1 u8][count u32][packed cts], every element
// without the d0 low bits of its c0 and the d1 low bits of its c1
// coefficients (he.Ciphertext.WritePacked). The server writes its
// engine's ReplyRounding; (0, 0) is lossless.
func WriteCiphertextBatchPacked(w io.Writer, cts []*he.Ciphertext, d0, d1 int) error {
	if d0 < 0 || d0 > 255 || d1 < 0 || d1 > 255 {
		return fmt.Errorf("core: batch drops (%d, %d) out of range", d0, d1)
	}
	var hdr [ciphertextBatchHeaderSize]byte
	putU32(hdr[0:], ciphertextBatchMagic)
	hdr[4] = imgFlagPacked
	hdr[5], hdr[6] = byte(d0), byte(d1)
	putU32(hdr[7:], uint32(len(cts)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: write batch header: %w", err)
	}
	for i, ct := range cts {
		if ct == nil {
			return fmt.Errorf("core: nil ciphertext %d in batch", i)
		}
		if err := ct.WritePacked(w, d0, d1); err != nil {
			return fmt.Errorf("core: encoding batch element %d: %w", i, err)
		}
	}
	return nil
}

// MarshalCiphertextBatchPacked renders a packed batch to bytes, lossless
// (drops 0, 0). The benchmark ledger compiles against it.
func MarshalCiphertextBatchPacked(cts []*he.Ciphertext) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, CiphertextBatchPackedSize(cts, 0, 0)))
	if err := WriteCiphertextBatchPacked(buf, cts, 0, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalCiphertextBatchAny is the network batch decoder (the reverse of
// WriteCiphertextBatchPacked): it reads the drops from the header, refuses
// any that would leave a coefficient no bit, and lifts every element back
// to full residues. The name is kept for the frozen benchmark ledger, which
// compiles against it, and goes at the next [benchmark] PR.
func UnmarshalCiphertextBatchAny(b []byte, params he.Parameters) ([]*he.Ciphertext, error) {
	r := bytes.NewReader(b)
	if magic, err := readU32(r); err != nil || magic != ciphertextBatchMagic {
		return nil, fmt.Errorf("core: not a packed ciphertext batch (bad magic)")
	}
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: batch flags: %w", err)
	}
	if hdr[0] != imgFlagPacked {
		return nil, fmt.Errorf("core: ciphertext batch with invalid flags %#x", hdr[0])
	}
	d0, d1 := int(hdr[1]), int(hdr[2])
	if width := ring.CoeffBits(params.Q); d0 >= width || d1 >= width {
		return nil, fmt.Errorf("core: batch drops (%d, %d) leave no bit of a %d-bit coefficient", d0, d1, width)
	}
	n, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("core: batch length: %w", err)
	}
	return readPackedCiphertexts(r, n, params, d0, d1)
}
