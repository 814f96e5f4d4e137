package ring

import (
	"math"
	"testing"
)

// countingSource counts the words a sampler draws from a seeded stream.
type countingSource struct {
	src   Source
	words int
}

func (c *countingSource) Uint64() uint64 {
	c.words++
	return c.src.Uint64()
}

// constSource yields one word forever: the adversarial ends of the CDT.
type constSource uint64

func (c constSource) Uint64() uint64 { return uint64(c) }

// chiSquareLimit is far out in the tail for the few degrees of freedom used
// here (p < 1e-6 at 12 dof); the streams are seeded, so a pass is stable.
const chiSquareLimit = 45.0

// TestSamplerTernaryThirds: {-1, 0, 1} each take a third of the draws, and
// a 64-bit word serves 32 two-bit trials instead of one.
func TestSamplerTernaryThirds(t *testing.T) {
	r := testRing(t)
	src := &countingSource{src: NewSeededSource(21)}
	s := NewSampler(r, src)
	const polys = 600
	counts := map[int64]float64{}
	p := r.NewPoly()
	for i := 0; i < polys; i++ {
		s.Ternary(p)
		for _, c := range p.Coeffs {
			counts[r.Mod.Centered(c)]++
		}
	}
	total := float64(polys * r.N)
	if len(counts) != 3 || counts[-1]+counts[0]+counts[1] != total {
		t.Fatalf("ternary support %v", counts)
	}
	chi := 0.0
	for _, v := range []int64{-1, 0, 1} {
		d := counts[v] - total/3
		chi += d * d / (total / 3)
	}
	if chi > chiSquareLimit {
		t.Fatalf("ternary counts %v: chi-square %.1f against uniform thirds", counts, chi)
	}
	// n coefficients need n·4/3 trials on average, 32 to a word; every
	// polynomial starts a fresh word. One word per trial would be ~n·4/3.
	perPoly := float64(src.words) / polys
	if want := float64(r.N) * 4 / 3 / 32; perPoly < want || perPoly > want+1 {
		t.Fatalf("%.2f source words per %d-coefficient polynomial, want within one of %.2f", perPoly, r.N, want)
	}
}

// TestSamplerGaussianMoments: one word per coefficient yields the CDT's
// distribution — mean 0, σ ≈ DefaultSigma, balanced signs, magnitudes
// matching the table's mass bin by bin — inside the hard ±⌈6σ⌉ bound.
func TestSamplerGaussianMoments(t *testing.T) {
	r := testRing(t)
	src := &countingSource{src: NewSeededSource(22)}
	s := NewSampler(r, src)
	const polys = 3000
	bound := int64(GaussianBound())
	mags := make([]float64, bound+1)
	var sum, sumSq, pos, neg float64
	p := r.NewPoly()
	for i := 0; i < polys; i++ {
		s.Gaussian(p)
		for _, c := range p.Coeffs {
			v := r.Mod.Centered(c)
			if v > bound || v < -bound {
				t.Fatalf("gaussian sample %d outside ±%d", v, bound)
			}
			sum += float64(v)
			sumSq += float64(v * v)
			switch {
			case v > 0:
				pos++
				mags[v]++
			case v < 0:
				neg++
				mags[-v]++
			default:
				mags[0]++
			}
		}
	}
	total := float64(polys * r.N)
	if src.words != polys*r.N {
		t.Fatalf("%d source words for %d coefficients, want one each", src.words, polys*r.N)
	}
	if mean := sum / total; math.Abs(mean) > 5*DefaultSigma/math.Sqrt(total) {
		t.Errorf("mean %.4f not centred", mean)
	}
	if sigma := math.Sqrt(sumSq / total); math.Abs(sigma-DefaultSigma) > 0.03*DefaultSigma {
		t.Errorf("sigma %.3f, want %.2f", sigma, DefaultSigma)
	}
	if skew := pos - neg; math.Abs(skew) > 5*math.Sqrt(pos+neg) {
		t.Errorf("%v positive against %v negative samples", pos, neg)
	}
	// Magnitude bins against the table's own mass, the thin tail pooled.
	const bins = 12
	chi, tailSeen, tailWant := 0.0, 0.0, 0.0
	prev := uint64(0)
	for m, c := range s.cdt {
		want := float64(c-prev) / float64(uint64(1)<<63) * total
		prev = c
		if m >= bins {
			tailSeen, tailWant = tailSeen+mags[m], tailWant+want
			continue
		}
		chi += (mags[m] - want) * (mags[m] - want) / want
	}
	chi += (tailSeen - tailWant) * (tailSeen - tailWant) / tailWant
	if chi > chiSquareLimit {
		t.Errorf("magnitude histogram %v: chi-square %.1f against the CDT", mags, chi)
	}
}

// TestSamplerGaussianWordSplit pins how a word is spent: the upper 63 bits
// pick the magnitude, bit 0 the sign, and the extreme words hit the bound
// exactly rather than exceed it.
func TestSamplerGaussianWordSplit(t *testing.T) {
	r := testRing(t)
	bound := int64(GaussianBound())
	p := r.NewPoly()
	for _, tc := range []struct {
		word uint64
		want int64
	}{
		{0, 0}, {1, 0}, // zero magnitude has no sign
		{^uint64(0), -bound}, {^uint64(0) - 1, bound},
	} {
		NewSampler(r, constSource(tc.word)).Gaussian(p)
		for i, c := range p.Coeffs {
			if got := r.Mod.Centered(c); got != tc.want {
				t.Fatalf("word %#x coefficient %d: %d, want %d", tc.word, i, got, tc.want)
			}
		}
	}
}

// TestCryptoSourceStreamsDiffer: every NewCryptoSource is keyed afresh from
// crypto/rand, so two of them never share a stream, and neither is the
// deterministic test stream.
func TestCryptoSourceStreamsDiffer(t *testing.T) {
	words := func(src Source) (w [4]uint64) {
		for i := range w {
			w[i] = src.Uint64()
		}
		return w
	}
	a, b, seeded := words(NewCryptoSource()), words(NewCryptoSource()), words(NewSeededSource(0))
	if a == b || a == seeded || b == seeded {
		t.Fatalf("streams repeat: %x, %x, seeded %x", a, b, seeded)
	}
}
