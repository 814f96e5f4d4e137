package ring

import (
	"fmt"
	"math/big"
)

// maxAuxLimbs bounds the auxiliary basis. Three 57-bit limbs (~2^171)
// exceed the offset-lifted quotient bound for every legal parameter set
// (n ≤ 8192, q < 2^58, t < q gives |y| < 2^129), so the sizing loop below
// always terminates within this cap.
const maxAuxLimbs = 3

// RNSMultiplier computes the FV tensor step — out_i = round(t·z_i/q) mod q
// for the three tensor polynomials z_i of a ciphertext product — entirely in
// word arithmetic over an RNS basis {p_1, …, p_k, q}: the ciphertext modulus
// q is the last limb of the chain and k auxiliary word-size NTT primes
// carry the convolution headroom the single modulus lacks.
//
// The auxiliary count k is sized to the parameters, not fixed: the
// constructor computes the exact rounding-quotient bound
// |y| ≤ (2n·⌊q/2⌋²·t + ⌊q/2⌋)/q with big-integer arithmetic and takes the
// fewest 57-bit primes whose product holds the offset-lifted quotient.
// Small plaintext moduli — the paper's CRT residue channels and the SIMD
// serving tier — need only two auxiliary limbs, which cuts the per-multiply
// NTT work by a quarter against a fixed three-limb basis; the pathological
// t ≈ q/4 worst case still gets three.
//
// The pipeline per multiply is: CRT basis extension of the centered mod-q
// operands into the auxiliary limbs, per-limb negacyclic NTT convolution
// with the plaintext modulus t folded into the pointwise stage, and a
// DivRoundByLastModulus scaled rounding whose quotient is folded back to a
// single mod-q residue with Garner mixed-radix digits and Shoup
// multiplications — no 128-bit division anywhere on the path. The result is
// bit-exact with the schoolbook reference (NegacyclicConvolveInt followed by
// u128 scale-and-round; see the equivalence property tests): for odd q the
// reference's sign-magnitude rounding sign(z)·floor((|z|·t + floor(q/2))/q)
// equals the RNS path's floor((z·t + floor(q/2))/q) identically.
//
// The basis product p_1···p_k·q comfortably exceeds the tensor bound
// 2n·(q/2)²·t for every supported degree, n = 8192 included.
type RNSMultiplier struct {
	rr *RNSRing // limbs [p_1, …, p_k, q]; q shared with the ciphertext ring
	rq *Ring
	t  uint64

	// Fold precomputations: Garner mixed-radix reconstruction of the
	// offset-lifted quotient w = y + 2^offBit from its auxiliary residues,
	// evaluated directly mod q. With P_j = p_1···p_j (P_0 = 1), the digit
	// expansion is w = t_0 + t_1·P_1 + … + t_{k-1}·P_{k-1}.
	offBit        uint     // log2 of the lift offset; 2^offBit > |y|max
	prodInv       []uint64 // j ≥ 1: P_j^-1 mod p_{j+1}
	prodInvShoup  []uint64
	p1ModP3       uint64 // P_1 mod p_3 (k = 3 only)
	p1ModP3Shoup  uint64
	prodModQ      []uint64 // j ≥ 1: P_j mod q
	prodModQShoup []uint64
	offModAux     []uint64 // 2^offBit mod p_j
	offModQ       uint64   // 2^offBit mod q
}

// NewRNSMultiplier builds the auxiliary basis for the ciphertext ring rq and
// plaintext modulus t. The auxiliary primes are generated one bit below
// MaxModulusBits so they can never collide with a maximal-size ciphertext
// modulus; rq itself becomes the chain's last limb, which keeps NTT
// accounting for the q-limb attributed to the ciphertext ring. The
// constructor proves the rounding-quotient and Garner range bounds with
// exact big-integer arithmetic and refuses parameter sets that violate them.
func NewRNSMultiplier(rq *Ring, t uint64) (*RNSMultiplier, error) {
	if t == 0 || t >= rq.Mod.Q {
		return nil, fmt.Errorf("ring: rns multiplier plaintext modulus %d outside (0, q)", t)
	}

	// Exact range analysis. The worst tensor coefficient is the cross term:
	// |z| ≤ 2n·h² with h = floor(q/2) centered operands, so the scaled
	// value v = t·z satisfies |v| ≤ 2n·h²·t and the rounded quotient
	// y = floor((v + h)/q) satisfies |y| ≤ (2n·h²·t + h)/q. The offset lift
	// w = y + 2^offBit with 2^offBit > |y|max keeps w positive, and the
	// Garner fold needs w < p_1···p_k.
	q := new(big.Int).SetUint64(rq.Mod.Q)
	h := new(big.Int).Rsh(q, 1)
	vmax := new(big.Int).Mul(h, h)
	vmax.Mul(vmax, big.NewInt(int64(2*rq.N)))
	vmax.Mul(vmax, new(big.Int).SetUint64(t))
	ymax := new(big.Int).Add(vmax, h)
	ymax.Div(ymax, q)
	offBit := uint(ymax.BitLen())
	if offBit == 0 {
		offBit = 1
	}
	offset := new(big.Int).Lsh(big.NewInt(1), offBit)
	wmax := new(big.Int).Add(ymax, offset)

	// Size the basis: the fewest auxiliary limbs whose product holds the
	// lifted quotient.
	var aux []uint64
	var auxProd *big.Int
	for count := 1; ; count++ {
		if count > maxAuxLimbs {
			return nil, fmt.Errorf("ring: rns quotient lift exceeds %d auxiliary limbs for n=%d q=%d t=%d",
				maxAuxLimbs, rq.N, rq.Mod.Q, t)
		}
		chain, err := GenerateChain(MaxModulusBits-1, rq.N, count, rq.Mod.Q)
		if err != nil {
			return nil, fmt.Errorf("ring: rns auxiliary basis: %w", err)
		}
		if prod := ChainProduct(chain); prod.Cmp(wmax) > 0 {
			aux, auxProd = chain, prod
			break
		}
	}
	// The tensor value t·z must itself sit centered-uniquely inside the
	// full basis.
	if fullProd := new(big.Int).Mul(auxProd, q); new(big.Int).Lsh(vmax, 1).Cmp(fullProd) >= 0 {
		return nil, fmt.Errorf("ring: rns basis %d bits cannot hold tensor bound for n=%d q=%d t=%d",
			fullProd.BitLen(), rq.N, rq.Mod.Q, t)
	}

	limbs := make([]*Ring, 0, len(aux)+1)
	for _, p := range aux {
		r, err := NewRing(rq.N, p)
		if err != nil {
			return nil, fmt.Errorf("ring: rns auxiliary limb %d: %w", p, err)
		}
		limbs = append(limbs, r)
	}
	limbs = append(limbs, rq)
	rr, err := newRNSRingFromLimbs(limbs)
	if err != nil {
		return nil, err
	}

	ka := len(aux)
	rm := &RNSMultiplier{
		rr: rr, rq: rq, t: t, offBit: offBit,
		prodInv:       make([]uint64, ka),
		prodInvShoup:  make([]uint64, ka),
		prodModQ:      make([]uint64, ka),
		prodModQShoup: make([]uint64, ka),
		offModAux:     make([]uint64, ka),
	}
	mq := rq.Mod
	// P_j mod p_{j+1}, P_j^-1 mod p_{j+1}, and P_j mod q, built incrementally.
	for j := 1; j < ka; j++ {
		mj := limbs[j].Mod
		pModMj := uint64(1)
		for i := 0; i < j; i++ {
			pModMj = mj.Mul(pModMj, limbs[i].Mod.Q%mj.Q)
		}
		if rm.prodInv[j], err = mj.Inv(pModMj); err != nil {
			return nil, err
		}
		rm.prodInvShoup[j] = mj.Shoup(rm.prodInv[j])
		pModQ := uint64(1)
		for i := 0; i < j; i++ {
			pModQ = mq.Mul(pModQ, limbs[i].Mod.Q%mq.Q)
		}
		rm.prodModQ[j] = pModQ
		rm.prodModQShoup[j] = mq.Shoup(pModQ)
	}
	if ka == 3 {
		m3 := limbs[2].Mod
		rm.p1ModP3 = limbs[0].Mod.Q % m3.Q
		rm.p1ModP3Shoup = m3.Shoup(rm.p1ModP3)
	}
	for j := 0; j < ka; j++ {
		rm.offModAux[j] = limbs[j].Mod.Pow(2, uint64(offBit))
	}
	rm.offModQ = mq.Pow(2, uint64(offBit))
	return rm, nil
}

// Chain returns the full RNS basis [p_1, …, p_k, q].
func (rm *RNSMultiplier) Chain() []uint64 { return rm.rr.Chain() }

// extendInput lifts a mod-q ciphertext polynomial into a full RNS scratch
// polynomial: the residues are copied into the q limb and their centered
// values embedded into the auxiliary limbs by exact CRT basis extension.
func (rm *RNSMultiplier) extendInput(p Poly) RNSPoly {
	k := rm.rr.K()
	x := rm.rr.GetRNSPoly()
	copy(x.Limbs[k-1].Coeffs, p.Coeffs)
	rm.rr.ExtendCenteredFromLast(x)
	return x
}

// divRoundFold rounds one tensor polynomial (coefficient domain, full
// basis) to out = round(z/q) mod q in a single fused pass per coefficient:
// the DivRoundByLastModulus quotient y_j = (z_j + h_j − u)·q⁻¹ mod p_j is
// computed limb by limb in registers, lifted by 2^offBit, reconstructed
// into Garner mixed-radix digits, and evaluated directly mod q with Shoup
// multiplications — the quotient never round-trips through memory. The
// loop is specialized per auxiliary count: k ≤ 3 and the digit recurrences
// are short enough that unrolling beats a generic nested loop.
func (rm *RNSMultiplier) divRoundFold(z RNSPoly, out Poly) {
	rnsCRTExtends.Add(1)
	rr := rm.rr
	k := rr.K()
	last := rr.Limbs[k-1].Mod
	halfLast := rr.halfLast
	src := z.Limbs[k-1].Coeffs
	mq := rm.rq.Mod
	// quotient reads the lifted last-limb residue u = (z_q + h) mod q,
	// reduced into limb j by conditional subtraction (q < 4·p_j).
	quot := func(m Modulus, zj, hj, u, inv, invShoup uint64) uint64 {
		for u >= m.Q {
			u -= m.Q
		}
		return m.MulShoup(m.Sub(m.Add(zj, hj), u), inv, invShoup)
	}
	switch k - 1 {
	case 1:
		m1 := rr.Limbs[0].Mod
		z1 := z.Limbs[0].Coeffs
		inv1, invs1, h1 := rr.lastInv[0], rr.lastInvShoup[0], rr.halfModLimb[0]
		for i := range out.Coeffs {
			u := last.Add(src[i], halfLast)
			w1 := m1.Add(quot(m1, z1[i], h1, u, inv1, invs1), rm.offModAux[0])
			out.Coeffs[i] = mq.Sub(mq.reduce128(0, w1), rm.offModQ)
		}
	case 2:
		m1, m2 := rr.Limbs[0].Mod, rr.Limbs[1].Mod
		z1, z2 := z.Limbs[0].Coeffs, z.Limbs[1].Coeffs
		inv1, invs1, h1 := rr.lastInv[0], rr.lastInvShoup[0], rr.halfModLimb[0]
		inv2, invs2, h2 := rr.lastInv[1], rr.lastInvShoup[1], rr.halfModLimb[1]
		for i := range out.Coeffs {
			u := last.Add(src[i], halfLast)
			// w = y + 2^offBit in [0, p1·p2). The auxiliary primes share a
			// bit length, so w1 < p1 < 2·p2 reduces with one conditional
			// subtraction (ReduceLazy).
			w1 := m1.Add(quot(m1, z1[i], h1, u, inv1, invs1), rm.offModAux[0])
			w2 := m2.Add(quot(m2, z2[i], h2, u, inv2, invs2), rm.offModAux[1])
			// Mixed-radix digits: w = w1 + p1·t1.
			t1 := m2.MulShoup(m2.Sub(w2, m2.ReduceLazy(w1)), rm.prodInv[1], rm.prodInvShoup[1])
			r := mq.reduce128(0, w1)
			r = mq.Add(r, mq.MulShoup(t1, rm.prodModQ[1], rm.prodModQShoup[1]))
			out.Coeffs[i] = mq.Sub(r, rm.offModQ)
		}
	case 3:
		m1, m2, m3 := rr.Limbs[0].Mod, rr.Limbs[1].Mod, rr.Limbs[2].Mod
		z1, z2, z3 := z.Limbs[0].Coeffs, z.Limbs[1].Coeffs, z.Limbs[2].Coeffs
		inv1, invs1, h1 := rr.lastInv[0], rr.lastInvShoup[0], rr.halfModLimb[0]
		inv2, invs2, h2 := rr.lastInv[1], rr.lastInvShoup[1], rr.halfModLimb[1]
		inv3, invs3, h3 := rr.lastInv[2], rr.lastInvShoup[2], rr.halfModLimb[2]
		for i := range out.Coeffs {
			u := last.Add(src[i], halfLast)
			// w = y + 2^offBit in [0, p1·p2·p3).
			w1 := m1.Add(quot(m1, z1[i], h1, u, inv1, invs1), rm.offModAux[0])
			w2 := m2.Add(quot(m2, z2[i], h2, u, inv2, invs2), rm.offModAux[1])
			w3 := m3.Add(quot(m3, z3[i], h3, u, inv3, invs3), rm.offModAux[2])
			// Mixed-radix digits: w = w1 + p1·t1 + p1·p2·t2.
			t1 := m2.MulShoup(m2.Sub(w2, m2.ReduceLazy(w1)), rm.prodInv[1], rm.prodInvShoup[1])
			s := m3.Sub(m3.Sub(w3, m3.ReduceLazy(w1)), m3.MulShoup(t1, rm.p1ModP3, rm.p1ModP3Shoup))
			t2 := m3.MulShoup(s, rm.prodInv[2], rm.prodInvShoup[2])
			// Evaluate the expansion mod q and strip the offset.
			r := mq.reduce128(0, w1)
			r = mq.Add(r, mq.MulShoup(t1, rm.prodModQ[1], rm.prodModQShoup[1]))
			r = mq.Add(r, mq.MulShoup(t2, rm.prodModQ[2], rm.prodModQShoup[2]))
			out.Coeffs[i] = mq.Sub(r, rm.offModQ)
		}
	}
}

// MulScaleRound computes the full FV tensor product of ciphertexts (c0, c1)
// and (d0, d1): out0 = round(t·(c0⊛d0)/q), out1 = round(t·(c0⊛d1+c1⊛d0)/q),
// out2 = round(t·(c1⊛d1)/q), all mod q, where ⊛ is exact negacyclic
// convolution of the centered operands. Inputs are coefficient-domain mod-q
// polynomials and are not modified; outputs must not alias inputs.
//
// Per call this costs 4 forward and 3 inverse NTTs per limb — 12+9 on the
// two-auxiliary-limb basis the serving tiers get — and the pointwise stage
// runs limbs in parallel across worker goroutines. t is
// folded into the inverse transforms' 1/n normalization (INTTScaled), so
// the scaling costs nothing and the rounding stage is a pure
// DivRoundByLastModulus.
func (rm *RNSMultiplier) MulScaleRound(c0, c1, d0, d1, out0, out1, out2 Poly) {
	rr := rm.rr
	k := rr.K()
	a0, a1 := rm.extendInput(c0), rm.extendInput(c1)
	b0, b1 := rm.extendInput(d0), rm.extendInput(d1)
	z0, z1, z2 := rr.GetRNSPoly(), rr.GetRNSPoly(), rr.GetRNSPoly()

	// Everything between extension and rounding is limb-local: transform,
	// pointwise-multiply, and inverse-transform (scaling by t on the way
	// out) each limb in one parallel task.
	parallelLimbs(k, func(i int) {
		r := rr.Limbs[i]
		r.NTT(a0.Limbs[i])
		r.NTT(a1.Limbs[i])
		r.NTT(b0.Limbs[i])
		r.NTT(b1.Limbs[i])
		r.MulCoeffs(a0.Limbs[i], b0.Limbs[i], z0.Limbs[i])
		r.MulCoeffsPairAdd(a0.Limbs[i], b1.Limbs[i], a1.Limbs[i], b0.Limbs[i], z1.Limbs[i])
		r.MulCoeffs(a1.Limbs[i], b1.Limbs[i], z2.Limbs[i])
		r.INTTScaled(z0.Limbs[i], rm.t)
		r.INTTScaled(z1.Limbs[i], rm.t)
		r.INTTScaled(z2.Limbs[i], rm.t)
	})
	rnsLimbMuls.Add(uint64(4 * k))
	rr.PutRNSPoly(a0)
	rr.PutRNSPoly(a1)
	rr.PutRNSPoly(b0)
	rr.PutRNSPoly(b1)

	outs := [3]Poly{out0, out1, out2}
	zs := [3]RNSPoly{z0, z1, z2}
	parallelLimbs(3, func(o int) { rm.divRoundFold(zs[o], outs[o]) })
	rr.PutRNSPoly(z0)
	rr.PutRNSPoly(z1)
	rr.PutRNSPoly(z2)
}

// SquareScaleRound is MulScaleRound for a ciphertext times itself: half the
// forward transforms, and the doubled cross term of the square is absorbed
// into the inverse-transform scale (z1 leaves the NTT domain scaled by 2t
// where z0, z2 take t).
func (rm *RNSMultiplier) SquareScaleRound(c0, c1, out0, out1, out2 Poly) {
	rr := rm.rr
	k := rr.K()
	a0, a1 := rm.extendInput(c0), rm.extendInput(c1)
	z0, z1, z2 := rr.GetRNSPoly(), rr.GetRNSPoly(), rr.GetRNSPoly()

	parallelLimbs(k, func(i int) {
		r := rr.Limbs[i]
		r.NTT(a0.Limbs[i])
		r.NTT(a1.Limbs[i])
		r.MulCoeffs(a0.Limbs[i], a0.Limbs[i], z0.Limbs[i])
		r.MulCoeffs(a0.Limbs[i], a1.Limbs[i], z1.Limbs[i])
		r.MulCoeffs(a1.Limbs[i], a1.Limbs[i], z2.Limbs[i])
		r.INTTScaled(z0.Limbs[i], rm.t)
		r.INTTScaled(z1.Limbs[i], 2*rm.t)
		r.INTTScaled(z2.Limbs[i], rm.t)
	})
	rnsLimbMuls.Add(uint64(3 * k))
	rr.PutRNSPoly(a0)
	rr.PutRNSPoly(a1)

	outs := [3]Poly{out0, out1, out2}
	zs := [3]RNSPoly{z0, z1, z2}
	parallelLimbs(3, func(o int) { rm.divRoundFold(zs[o], outs[o]) })
	rr.PutRNSPoly(z0)
	rr.PutRNSPoly(z1)
	rr.PutRNSPoly(z2)
}
