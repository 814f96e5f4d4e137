package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// closure reconciles the staged stages with the wire latency they should
// add up to. Enclave time (trusted compute plus injected SGX delay) is
// attributed exactly on both sides by the platform's own counters, and it
// is the noisy part: the cost model draws a 6% jitter per ECALL on a delay
// that is half of a request. So each side enters as its time outside the
// enclave — wire request latencies and staged stage sums, each minus the
// enclave time that elapsed during it — and the enclave term cancels:
// transport is what the wire path spends that no stage sees (socket,
// framing, scheduling between stages), and ratio is the share of the wire
// p50 the stages do account for.
func closure(wireRestMS, stagedRestMS []float64, p50MS float64) (ratio, transportMS float64) {
	if p50MS <= 0 {
		return 0, 0
	}
	transportMS = median(wireRestMS) - median(stagedRestMS)
	return (p50MS - transportMS) / p50MS, transportMS
}

// Bounds of an accepted stage ledger: below closureMin time is going
// somewhere the stages do not see, above closureMax the staged pipeline is
// not the program the wire path runs.
const (
	closureMin = 0.85
	closureMax = 1.10
)

func closes(ratio float64) bool { return ratio >= closureMin && ratio <= closureMax }
