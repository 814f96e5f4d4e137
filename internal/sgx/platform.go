package sgx

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	mrand "math/rand/v2"
	"sync"
	"time"
)

// Platform models one SGX-capable machine: it owns the cost model, a
// platform sealing secret (fused into real CPUs), and the attestation key
// a quoting enclave would use. Create enclaves on it with Launch.
type Platform struct {
	cost CostModel

	sealSecret [32]byte
	attKey     *ecdsa.PrivateKey

	mu     sync.Mutex
	jitter *mrand.Rand

	statsMu sync.Mutex
	stats   Stats
}

// Stats aggregates simulated-overhead accounting across a platform's
// enclaves, so experiments can report how much time the SGX tax added.
type Stats struct {
	ECalls           uint64
	OCalls           uint64
	PageFaults       uint64
	InjectedOverhead time.Duration
	EnclaveCompute   time.Duration
}

// Transitions counts enclave boundary crossings (ECALLs + OCALLs) — the
// resource per-layer ECALL batching amortizes.
func (s Stats) Transitions() uint64 { return s.ECalls + s.OCalls }

// Sub returns the accounting delta s - prev, for before/after measurements
// around a workload.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ECalls:           s.ECalls - prev.ECalls,
		OCalls:           s.OCalls - prev.OCalls,
		PageFaults:       s.PageFaults - prev.PageFaults,
		InjectedOverhead: s.InjectedOverhead - prev.InjectedOverhead,
		EnclaveCompute:   s.EnclaveCompute - prev.EnclaveCompute,
	}
}

// PlatformOption customizes platform construction.
type PlatformOption func(*platformConfig)

type platformConfig struct {
	jitterSeed uint64
}

// WithJitterSeed makes the injected timing jitter deterministic.
func WithJitterSeed(seed uint64) PlatformOption {
	return func(c *platformConfig) { c.jitterSeed = seed }
}

// NewPlatform builds a platform with the given cost model.
func NewPlatform(cost CostModel, opts ...PlatformOption) (*Platform, error) {
	cfg := platformConfig{jitterSeed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	p := &Platform{
		cost:   cost.normalized(),
		jitter: mrand.New(mrand.NewPCG(cfg.jitterSeed, cfg.jitterSeed^0xda7a)),
	}
	if _, err := io.ReadFull(rand.Reader, p.sealSecret[:]); err != nil {
		return nil, fmt.Errorf("sgx: generating platform seal secret: %w", err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: generating attestation key: %w", err)
	}
	p.attKey = key
	return p, nil
}

// Cost returns the platform's cost model.
func (p *Platform) Cost() CostModel { return p.cost }

// AttestationPublicKey returns the public half of the platform's quoting
// key; a verification service registers it (Intel's provisioning role).
func (p *Platform) AttestationPublicKey() *ecdsa.PublicKey {
	return &p.attKey.PublicKey
}

// signQuote signs digest with the platform attestation key. Only package
// attest calls this, via Quote generation.
func (p *Platform) signQuote(digest []byte) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, p.attKey, digest)
}

// SignQuoteDigest signs a quote digest (measurement, user data and nonce
// already hashed). It simulates the quoting enclave's EPID/ECDSA signing.
func (p *Platform) SignQuoteDigest(digest [32]byte) ([]byte, error) {
	return p.signQuote(digest[:])
}

// Snapshot returns a copy of the accumulated overhead statistics.
func (p *Platform) Snapshot() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// ResetStats zeroes the accumulated statistics.
func (p *Platform) ResetStats() {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	p.stats = Stats{}
}

func (p *Platform) recordECall(overhead, compute time.Duration, faults uint64) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	p.stats.ECalls++
	p.stats.PageFaults += faults
	p.stats.InjectedOverhead += overhead
	p.stats.EnclaveCompute += compute
}

func (p *Platform) recordOCall(overhead time.Duration) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	p.stats.OCalls++
	p.stats.InjectedOverhead += overhead
}

// jittered perturbs d multiplicatively with the model's jitter fraction.
func (p *Platform) jittered(d time.Duration) time.Duration {
	if p.cost.JitterFraction <= 0 || d <= 0 {
		return d
	}
	p.mu.Lock()
	f := 1 + p.cost.JitterFraction*p.jitter.NormFloat64()
	p.mu.Unlock()
	if f < 0.1 {
		f = 0.1
	}
	return time.Duration(float64(d) * f)
}

// inject burns wall-clock time to model SGX overhead. Short delays busy-wait
// for accuracy; longer ones sleep.
func inject(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > 500*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// sealKey derives the sealing key for a measurement, binding sealed blobs
// to (platform, enclave identity) like MRENCLAVE-policy sealing.
func (p *Platform) sealKey(measurement [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("hesgx/sgx/seal-key/v1"))
	h.Write(p.sealSecret[:])
	h.Write(measurement[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// overheadFor computes the extra time an enclave execution of length
// compute with the given working set should cost.
func (p *Platform) overheadFor(compute time.Duration, workingSet int) (time.Duration, uint64) {
	c := p.cost
	over := c.TransitionLatency
	if c.InEnclaveSlowdown > 1 {
		over += time.Duration(float64(compute) * (c.InEnclaveSlowdown - 1))
	}
	var faults uint64
	if workingSet > c.EPCBytes {
		excess := workingSet - c.EPCBytes
		faults = uint64((excess + c.PageBytes - 1) / c.PageBytes)
		over += time.Duration(faults) * c.PagingLatency
	}
	if over < 0 || float64(over) > math.MaxInt64/2 {
		over = 0
	}
	return p.jittered(over), faults
}
