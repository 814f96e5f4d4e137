package ring

import (
	"math"
	"testing"
)

// chainWeightedSum is the oracle of WeightedSumInto: one fully reduced
// MulScalarAdd per term, each weight lifted to its residue mod q.
func chainWeightedSum(r *Ring, out Poly, as []Poly, ws []int64) {
	for i, w := range ws {
		c := absInt64(w) % r.Mod.Q
		if w < 0 {
			c = r.Mod.Neg(c)
		}
		r.MulScalarAdd(as[i], c, out)
	}
}

// weightedSumRing builds a degree-64 ring whose modulus has the given bit
// length.
func weightedSumRing(t testing.TB, bits int) *Ring {
	t.Helper()
	q, err := GenerateNTTPrime(bits, testN)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(testN, q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkWeightedSum runs the kernel and the chain from the same accumulator
// and fails on the first coefficient where they differ.
func checkWeightedSum(t *testing.T, r *Ring, acc Poly, as []Poly, ws []int64) {
	t.Helper()
	got, want := acc.Copy(), acc.Copy()
	r.WeightedSumInto(got, as, ws)
	chainWeightedSum(r, want, as, ws)
	for j := range want.Coeffs {
		if got.Coeffs[j] != want.Coeffs[j] {
			t.Fatalf("weights %v: coefficient %d = %d, chain gives %d", ws, j, got.Coeffs[j], want.Coeffs[j])
		}
	}
}

func TestLazyMass(t *testing.T) {
	for _, c := range []struct {
		bits int
		want uint64
	}{{56, 255}, {MaxModulusBits, 63}} {
		r := weightedSumRing(t, c.bits)
		if got := r.Mod.lazyMass(); got != c.want {
			t.Fatalf("%d-bit q=%d: lazyMass %d, want %d", c.bits, r.Mod.Q, got, c.want)
		}
		if got, want := r.Mod.lazyMass(), math.MaxUint64/r.Mod.Q-1; got != want {
			t.Fatalf("%d-bit q: lazyMass %d, want ⌊(2⁶⁴−1)/q⌋−1 = %d", c.bits, got, want)
		}
	}
}

func TestReduceWord(t *testing.T) {
	for _, bits := range []int{30, 56, MaxModulusBits} {
		r := weightedSumRing(t, bits)
		q := r.Mod.Q
		for _, x := range []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, math.MaxUint64, math.MaxUint64 - 1, (math.MaxUint64 / q) * q, (math.MaxUint64/q)*q - 1} {
			if got := r.Mod.reduceWord(x); got != x%q {
				t.Fatalf("%d-bit q: reduceWord(%d) = %d, want %d", bits, x, got, x%q)
			}
		}
	}
}

// TestWeightedSumMatchesChain pins the kernel to the per-term chain,
// coefficient for coefficient, at the moduli the engine runs (56 bits), the
// widest one supported (58 bits, the smallest run mass) and a narrow one (30
// bits, runs far longer than any layer). Inputs include the extreme residues
// 0 and q−1, where the run bound is tight.
func TestWeightedSumMatchesChain(t *testing.T) {
	for _, bits := range []int{30, 56, MaxModulusBits} {
		r := weightedSumRing(t, bits)
		s := NewSampler(r, NewSeededSource(uint64(bits)))
		limit := int64(r.Mod.lazyMass())
		if limit > 1<<20 {
			limit = 1 << 20 // keep the 30-bit cases' term counts small
		}
		const terms = 9
		uniform := func() []Poly {
			as := make([]Poly, terms)
			for i := range as {
				as[i] = r.NewPoly()
				s.Uniform(as[i])
			}
			return as
		}
		constant := func(v uint64) []Poly {
			as := make([]Poly, terms)
			for i := range as {
				as[i] = r.NewPoly()
				for j := range as[i].Coeffs {
					as[i].Coeffs[j] = v
				}
			}
			return as
		}
		fill := func(w int64) []int64 {
			ws := make([]int64, terms)
			for i := range ws {
				ws[i] = w
			}
			return ws
		}
		zero, full := r.NewPoly(), r.NewPoly()
		s.Uniform(full)
		top := constant(r.Mod.Q - 1)[0]
		for _, c := range []struct {
			name string
			ws   []int64
		}{
			{"ones", []int64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
			{"minus-ones", fill(-1)},
			{"mixed-signs", []int64{3, -7, 0, 12, -1, 5, -9, 2, 4}},
			{"plus-limit", []int64{limit, 0, 0, 0, 0, 0, 0, 0, 0}},
			{"minus-limit", []int64{-limit, 0, 0, 0, 0, 0, 0, 0, 0}},
			{"mass-at-limit", []int64{limit - 8, 1, 1, 1, 1, 1, 1, 1, 1}},
			{"mass-one-past-limit", []int64{limit - 7, 1, 1, 1, 1, 1, 1, 1, 1}},
			{"all-negative-at-limit", []int64{-(limit - 8), -1, -1, -1, -1, -1, -1, -1, -1}},
			{"all-negative-past-limit", fill(-limit)},
			{"one-over-limit", []int64{1, 2, limit + 1, -3, 4, 0, 0, 0, 0}},
			{"negative-over-limit", []int64{-(limit + 1), 2, -3, 0, 0, 0, 0, 0, 0}},
			{"extreme-weights", []int64{math.MinInt64, math.MaxInt64, -1, 1, math.MinInt64 + 1, 0, 0, 0, 0}},
			{"zeros", fill(0)},
		} {
			t.Run(c.name, func(t *testing.T) {
				for _, acc := range []Poly{zero, full, top} {
					checkWeightedSum(t, r, acc, uniform(), c.ws)
					checkWeightedSum(t, r, acc, constant(0), c.ws)
					checkWeightedSum(t, r, acc, constant(r.Mod.Q-1), c.ws)
				}
			})
		}
		t.Run("empty", func(t *testing.T) {
			got := full.Copy()
			r.WeightedSumInto(got, nil, nil)
			if !got.Equal(full) {
				t.Fatal("an empty term list changed the accumulator")
			}
		})
		t.Run("every-term-count", func(t *testing.T) {
			// 1..9 terms hit every remainder of the four-term pass.
			as := uniform()
			ws := []int64{5, -3, 8, 1, -6, 2, 7, -4, 9}
			for k := 0; k <= terms; k++ {
				checkWeightedSum(t, r, full, as[:k], ws[:k])
			}
		})
	}
}

// FuzzWeightedSum drives the kernel with arbitrary weights — short and long
// runs, split runs and weights far past the run mass — against the chain.
func FuzzWeightedSum(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{1, 0, 0xff, 0xff, 0x7f, 0, 3, 0x80})
	f.Add(uint64(2), uint8(2), []byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0x40, 0})
	f.Add(uint64(3), uint8(0), []byte{})
	rings := map[uint8]*Ring{}
	for i, bits := range []int{30, 56, MaxModulusBits} {
		rings[uint8(i)] = weightedSumRing(f, bits)
	}
	f.Fuzz(func(t *testing.T, seed uint64, sel uint8, raw []byte) {
		r := rings[sel%3]
		if len(raw) > 256 {
			raw = raw[:256]
		}
		// Two bytes per weight; a weight divisible by 7 is widened past any
		// run mass.
		ws := make([]int64, len(raw)/2)
		for i := range ws {
			w := int64(int16(uint16(raw[2*i]) | uint16(raw[2*i+1])<<8))
			if w%7 == 0 {
				w <<= 40
			}
			ws[i] = w
		}
		s := NewSampler(r, NewSeededSource(seed))
		as := make([]Poly, len(ws))
		for i := range as {
			as[i] = r.NewPoly()
			s.Uniform(as[i])
		}
		acc := r.NewPoly()
		s.Uniform(acc)
		checkWeightedSum(t, r, acc, as, ws)
	})
}
