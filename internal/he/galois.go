package he

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hesgx/internal/ring"
)

// This file implements rotation key-switching: GaloisKeys (decomposed
// key-switch keys for a planned set of automorphisms), generation,
// seed-compressed serialization, and Evaluator.Rotate / RotateHoisted.
//
// A rotation of ct = (c0, c1) by Galois element g is
//
//	(φ_g(c0) + Σᵢ φ_g(dᵢ)·K0ᵢ,  Σᵢ φ_g(dᵢ)·K1ᵢ)
//
// where c1 = Σᵢ w^i·dᵢ is the base-w digit decomposition and
// (K0ᵢ, K1ᵢ) = (-(aᵢ·s + eᵢ) + w^i·φ_g(s), aᵢ). Correctness rides on
// φ_g being a ring automorphism: Σ w^i·φ_g(dᵢ) = φ_g(c1), so the phase of
// the output is φ_g(c0 + c1·s) minus the small key-error term.
//
// Hoisting: the expensive half of a rotation — decomposing c1 into digits
// and transforming each digit — does not depend on g. RotateHoisted pays it
// once per input ciphertext and serves every requested rotation from the
// cached NTT-domain digits, since NTT(φ_g(d)) is just the NTT-domain index
// permutation of NTT(d) (ring.AutomorphismNTT). Each extra rotation then
// costs 2·digits fused Shoup MACs plus two inverse transforms, which is
// what makes 24-rotation packed conv windows affordable.

// DefaultGaloisBaseBits is the decomposition base (as a bit count) for
// Galois keys. Rotations happen per conv window tap rather than once per
// multiply, so their key-switch noise digits·n·2^bits·B must stay far below
// the relinearization term: base 4 keeps the whole term near 2^22 for the
// n=2048/56-bit-q tier, leaving room for the conv taps that follow.
const DefaultGaloisBaseBits = 2

// Package-level rotation counters, exported on /metrics by the engine as
// he.keyswitch_ops and he.hoisted_rotations.
var (
	keyswitchOps     atomic.Uint64
	hoistedRotations atomic.Uint64
)

// KeySwitchOps returns the cumulative number of rotation key-switch
// operations (one per non-identity rotation) executed process-wide.
func KeySwitchOps() uint64 { return keyswitchOps.Load() }

// HoistedRotations returns how many of those rotations were served from an
// already-hoisted digit decomposition — the amortization win of
// RotateHoisted over one-at-a-time Rotate calls.
func HoistedRotations() uint64 { return hoistedRotations.Load() }

// galoisKey is the key-switch key for one Galois element: per-digit pairs
// (K0ᵢ, K1ᵢ) in NTT form, plus the 32-byte seeds the uniform K1ᵢ expand
// from (so serialization ships seeds, not polynomials).
type galoisKey struct {
	K0    []ring.Poly
	K1    []ring.Poly
	seeds [][SeedSize]byte

	shoupOnce sync.Once
	k0Shoup   [][]uint64
	k1Shoup   [][]uint64
}

func (k *galoisKey) shoupTables(r *ring.Ring) (k0, k1 [][]uint64) {
	k.shoupOnce.Do(func() {
		k.k0Shoup = make([][]uint64, len(k.K0))
		k.k1Shoup = make([][]uint64, len(k.K1))
		for i := range k.K0 {
			k.k0Shoup[i] = r.ShoupPrecompute(k.K0[i])
			k.k1Shoup[i] = r.ShoupPrecompute(k.K1[i])
		}
	})
	return k.k0Shoup, k.k1Shoup
}

// GaloisKeys hold rotation key-switch keys for a planned set of Galois
// elements, at their own decomposition base (BaseBits — smaller than the
// relinearization base, see DefaultGaloisBaseBits). Immutable after
// generation/deserialization and safe for concurrent use.
type GaloisKeys struct {
	Params   Parameters
	BaseBits int
	keys     map[uint64]*galoisKey
}

// Elements returns the Galois elements the key set covers, ascending.
func (gk *GaloisKeys) Elements() []uint64 {
	out := make([]uint64, 0, len(gk.keys))
	for g := range gk.keys {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether the set holds the key for rotation by step.
func (gk *GaloisKeys) Contains(step int) bool {
	g := ring.GaloisElement(step, gk.Params.N)
	if g == 1 {
		return true // identity needs no key
	}
	_, ok := gk.keys[g]
	return ok
}

// Covers reports whether gk can stand in for other wherever other is used:
// same parameters and decomposition base, and a key for every Galois element
// other holds. Keys for one element under one secret key differ only in their
// encryption randomness, so a covered set adds nothing.
func (gk *GaloisKeys) Covers(other *GaloisKeys) bool {
	if gk.BaseBits != other.BaseBits || !gk.Params.Equal(other.Params) {
		return false
	}
	for g := range other.keys {
		if _, ok := gk.keys[g]; !ok {
			return false
		}
	}
	return true
}

// GenGaloisKeys produces key-switch keys for the given rotation steps at
// decomposition base 2^baseBits (DefaultGaloisBaseBits when 0). Duplicate
// and identity steps are coalesced, so the set holds exactly the distinct
// non-trivial Galois elements — the "minimal rotation set" the packed
// planner derives per model.
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, steps []int, baseBits int) (*GaloisKeys, error) {
	if baseBits == 0 {
		baseBits = DefaultGaloisBaseBits
	}
	if baseBits < 1 || baseBits > 60 {
		return nil, fmt.Errorf("he: galois decomposition base bits %d out of range", baseBits)
	}
	params := kg.params
	r := params.Ring()
	digits := params.DecompDigitsFor(baseBits)
	gk := &GaloisKeys{Params: params, BaseBits: baseBits, keys: make(map[uint64]*galoisKey)}
	sg := r.NewPoly()
	for _, step := range steps {
		g := ring.GaloisElement(step, params.N)
		if g == 1 {
			continue
		}
		if _, ok := gk.keys[g]; ok {
			continue
		}
		r.Automorphism(sk.S, g, sg)
		key := &galoisKey{
			K0:    make([]ring.Poly, digits),
			K1:    make([]ring.Poly, digits),
			seeds: make([][SeedSize]byte, digits),
		}
		wPow := uint64(1)
		w := uint64(1) << uint(baseBits)
		for i := 0; i < digits; i++ {
			var seed [SeedSize]byte
			for o := 0; o < SeedSize; o += 8 {
				binary.LittleEndian.PutUint64(seed[o:], kg.src.Uint64())
			}
			a := r.NewPoly()
			r.UniformFromSeed(seed, a)
			e := r.NewPoly()
			kg.sampler.Gaussian(e)
			// k0 = -(a·s + e) + w^i·φ_g(s)
			k0 := r.NewPoly()
			r.MulNTT(a, sk.S, k0)
			r.Add(k0, e, k0)
			r.Neg(k0, k0)
			scaled := r.NewPoly()
			r.MulScalar(sg, wPow, scaled)
			r.Add(k0, scaled, k0)
			r.NTT(k0)
			r.NTT(a)
			key.K0[i] = k0
			key.K1[i] = a
			key.seeds[i] = seed
			wPow = r.Mod.Mul(wPow, w%r.Mod.Q)
		}
		gk.keys[g] = key
	}
	return gk, nil
}

// Rotate rotates the packed slots of ct left by step (right for negative
// steps), using the key set's entry for the corresponding Galois element.
// ct must be a size-2 coefficient-form ciphertext.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int, gk *GaloisKeys) (*Ciphertext, error) {
	outs, err := ev.RotateHoisted(ct, []int{step}, gk)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RotateHoisted computes every requested rotation of ct, hoisting the digit
// decomposition: c1 is decomposed and transformed once, and each rotation
// reuses the NTT-domain digits through its own key — the amortization that
// makes a 24-rotation conv window cost one decomposition instead of 24.
// Returns one ciphertext per step, aligned with steps; identity steps
// return plain copies.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int, gk *GaloisKeys) ([]*Ciphertext, error) {
	if err := ev.check(ct); err != nil {
		return nil, err
	}
	if gk == nil || !gk.Params.Equal(ev.params) {
		return nil, fmt.Errorf("he: missing or mismatched galois keys")
	}
	if ct.Size() != 2 {
		return nil, fmt.Errorf("he: Rotate requires a size-2 ciphertext (relinearize first); got size %d", ct.Size())
	}
	if err := checkCoeff("Rotate", ct); err != nil {
		return nil, err
	}
	outs := make([]*Ciphertext, len(steps))
	n := ev.params.N
	r := ev.params.Ring()
	digits := ev.params.DecompDigitsFor(gk.BaseBits)

	// Hoist: decompose c1 into base-w digits and transform each once. The
	// digits are lazily materialized so a steps slice of identities (or an
	// immediate key-lookup error) never pays for the decomposition.
	var digitNTT []ring.Poly
	defer func() {
		for _, d := range digitNTT {
			r.PutPoly(d)
		}
	}()
	hoist := func() {
		if digitNTT != nil {
			return
		}
		mask := (uint64(1) << uint(gk.BaseBits)) - 1
		shift := uint(gk.BaseBits)
		digitNTT = make([]ring.Poly, digits)
		for i := 0; i < digits; i++ {
			d := r.GetPoly()
			for j, c := range ct.Polys[1].Coeffs {
				d.Coeffs[j] = (c >> (uint(i) * shift)) & mask
			}
			r.NTT(d)
			digitNTT[i] = d
		}
	}

	perm := r.GetPoly()
	acc0 := r.GetPoly()
	acc1 := r.GetPoly()
	defer func() {
		r.PutPoly(perm)
		r.PutPoly(acc0)
		r.PutPoly(acc1)
	}()
	for si, step := range steps {
		g := ring.GaloisElement(step, n)
		if g == 1 {
			outs[si] = ct.Copy()
			continue
		}
		key, ok := gk.keys[g]
		if !ok {
			return nil, fmt.Errorf("he: no galois key for rotation step %d (element %d)", step, g)
		}
		amortized := digitNTT != nil
		hoist()
		keyswitchOps.Add(1)
		if amortized {
			hoistedRotations.Add(1)
		}
		k0Shoup, k1Shoup := key.shoupTables(r)
		acc0.Zero()
		acc1.Zero()
		for i := 0; i < digits; i++ {
			// NTT(φ_g(dᵢ)) is the NTT-domain permutation of the hoisted digit.
			r.AutomorphismNTT(digitNTT[i], g, perm)
			r.MulCoeffsShoupAdd(perm, key.K0[i], k0Shoup[i], acc0)
			r.MulCoeffsShoupAdd(perm, key.K1[i], k1Shoup[i], acc1)
		}
		r.INTT(acc0)
		r.INTT(acc1)
		out := NewCiphertext(ev.params, 2)
		r.Automorphism(ct.Polys[0], g, out.Polys[0])
		r.Add(out.Polys[0], acc0, out.Polys[0])
		acc1.CopyTo(out.Polys[1])
		outs[si] = out
	}
	return outs, nil
}

// ---- serialization ----------------------------------------------------

// gkMagic tags a Galois key set on the wire ("FVGK").
const gkMagic = uint32(0x4656474B)

// maxGaloisKeyCount bounds the number of rotation keys a decoder will
// accept: rotation sets are derived per model (a 5×5 conv window plus
// pooling needs a few dozen), so anything larger is hostile.
const maxGaloisKeyCount = 1024

// WriteGaloisKeys serializes gk in the seeded/bit-packed v2 codec: each
// digit ships its 32-byte K1 expansion seed plus K0 bit-packed at
// CoeffBits(q) bits per coefficient — about half the bytes of writing both
// NTT polynomials.
func WriteGaloisKeys(w io.Writer, gk *GaloisKeys) error {
	if gk == nil || !gk.Params.Valid() {
		return fmt.Errorf("he: cannot serialize nil or invalid galois keys")
	}
	if err := binary.Write(w, binary.LittleEndian, gkMagic); err != nil {
		return fmt.Errorf("he: write galois keys: %w", err)
	}
	if err := WriteParameters(w, gk.Params); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(gk.BaseBits), uint32(len(gk.keys))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("he: write galois keys header: %w", err)
		}
	}
	width := ring.CoeffBits(gk.Params.Q)
	for _, g := range gk.Elements() {
		key := gk.keys[g]
		if err := binary.Write(w, binary.LittleEndian, g); err != nil {
			return fmt.Errorf("he: write galois element: %w", err)
		}
		for i := range key.K0 {
			if _, err := w.Write(key.seeds[i][:]); err != nil {
				return fmt.Errorf("he: write galois seed: %w", err)
			}
			if err := ring.WritePolyPacked(w, key.K0[i], width); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadGaloisKeys deserializes a Galois key set, re-expanding each K1 from
// its seed. Counts are bounded before allocation: the key count is checked
// against both a hard cap and (when the reader exposes its remaining
// length, as the wire path's bytes.Reader does) the minimum encoded size
// per key, so a hostile header cannot force a large allocation.
func ReadGaloisKeys(r io.Reader) (*GaloisKeys, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("he: read galois keys: %w", err)
	}
	if magic != gkMagic {
		return nil, fmt.Errorf("he: bad galois keys magic %#x", magic)
	}
	params, err := ReadParameters(r)
	if err != nil {
		return nil, err
	}
	var baseBits, count uint32
	for _, v := range []*uint32{&baseBits, &count} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("he: read galois keys header: %w", err)
		}
	}
	if baseBits < 1 || baseBits > 60 {
		return nil, fmt.Errorf("he: galois decomposition base bits %d out of range", baseBits)
	}
	if count == 0 || count > maxGaloisKeyCount {
		return nil, fmt.Errorf("he: implausible galois key count %d", count)
	}
	digits := params.DecompDigitsFor(int(baseBits))
	width := ring.CoeffBits(params.Q)
	perKey := 8 + digits*(SeedSize+ring.PackedPolySize(params.N, width))
	if sizer, ok := r.(interface{ Len() int }); ok {
		if int(count) > sizer.Len()/perKey+1 {
			return nil, fmt.Errorf("he: galois key count %d exceeds payload (%d bytes, %d per key)",
				count, sizer.Len(), perKey)
		}
	}
	rr := params.Ring()
	m := uint64(2 * params.N)
	gk := &GaloisKeys{Params: params, BaseBits: int(baseBits), keys: make(map[uint64]*galoisKey, count)}
	for k := uint32(0); k < count; k++ {
		var g uint64
		if err := binary.Read(r, binary.LittleEndian, &g); err != nil {
			return nil, fmt.Errorf("he: read galois element: %w", err)
		}
		if g&1 == 0 || g == 1 || g >= m {
			return nil, fmt.Errorf("he: invalid galois element %d", g)
		}
		if _, ok := gk.keys[g]; ok {
			return nil, fmt.Errorf("he: duplicate galois element %d", g)
		}
		key := &galoisKey{
			K0:    make([]ring.Poly, digits),
			K1:    make([]ring.Poly, digits),
			seeds: make([][SeedSize]byte, digits),
		}
		for i := 0; i < digits; i++ {
			if _, err := io.ReadFull(r, key.seeds[i][:]); err != nil {
				return nil, fmt.Errorf("he: read galois seed: %w", err)
			}
			k0, err := ring.ReadPolyPacked(r, width)
			if err != nil {
				return nil, err
			}
			if err := rr.ValidatePoly(k0); err != nil {
				return nil, fmt.Errorf("he: galois key poly: %w", err)
			}
			a := rr.NewPoly()
			rr.UniformFromSeed(key.seeds[i], a)
			rr.NTT(a)
			key.K0[i] = k0
			key.K1[i] = a
		}
		gk.keys[g] = key
	}
	return gk, nil
}

// MarshalGaloisKeys renders gk to bytes.
func MarshalGaloisKeys(gk *GaloisKeys) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteGaloisKeys(&buf, gk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalGaloisKeys parses gk from bytes (the wire decoder — counts are
// bounded against len(b) before allocation).
func UnmarshalGaloisKeys(b []byte) (*GaloisKeys, error) {
	return ReadGaloisKeys(bytes.NewReader(b))
}
