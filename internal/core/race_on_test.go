//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// paper-size per-term-chain equivalence tests skip under it (the detector
// multiplies their single-goroutine arithmetic several-fold, and the kernel
// they pin is covered under -race by the ring, he and linear suites).
const raceEnabled = true
