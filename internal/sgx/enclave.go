package sgx

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ECallFunc is trusted code: it runs "inside" the enclave with access to a
// Context for memory accounting and OCALLs. Input and output cross the
// enclave boundary as opaque bytes, as with real EDL-generated bridges.
type ECallFunc func(ctx *Context, input []byte) ([]byte, error)

// Definition declares an enclave before launch: its name, version, and the
// ECALL table. The measurement (MRENCLAVE analogue) hashes all of it, so
// any change to the declared identity changes the measurement.
type Definition struct {
	Name    string
	Version string
	ECalls  map[string]ECallFunc
}

// Enclave is a launched enclave instance. It is safe for concurrent ECALLs.
type Enclave struct {
	platform    *Platform
	name        string
	measurement [32]byte
	ecalls      map[string]ECallFunc

	mu        sync.Mutex
	destroyed bool
}

// Launch creates an enclave on the platform and computes its measurement.
func (p *Platform) Launch(def Definition) (*Enclave, error) {
	if def.Name == "" {
		return nil, fmt.Errorf("sgx: enclave needs a name")
	}
	if len(def.ECalls) == 0 {
		return nil, fmt.Errorf("sgx: enclave %q declares no ECALLs", def.Name)
	}
	e := &Enclave{
		platform: p,
		name:     def.Name,
		ecalls:   make(map[string]ECallFunc, len(def.ECalls)),
	}
	h := sha256.New()
	h.Write([]byte("hesgx/sgx/measurement/v1"))
	writeLenPrefixed(h, []byte(def.Name))
	writeLenPrefixed(h, []byte(def.Version))
	names := make([]string, 0, len(def.ECalls))
	for name, fn := range def.ECalls {
		if fn == nil {
			return nil, fmt.Errorf("sgx: ECALL %q is nil", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writeLenPrefixed(h, []byte(name))
		e.ecalls[name] = def.ECalls[name]
	}
	copy(e.measurement[:], h.Sum(nil))
	return e, nil
}

func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, b []byte) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(b)))
	h.Write(l[:])
	h.Write(b)
}

// Measurement returns the enclave's identity hash (MRENCLAVE analogue).
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// Name returns the enclave's name.
func (e *Enclave) Name() string { return e.name }

// Platform returns the platform hosting this enclave.
func (e *Enclave) Platform() *Platform { return e.platform }

// Destroy tears the enclave down; subsequent ECALLs fail.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.destroyed = true
}

// Context is passed to trusted code during an ECALL.
type Context struct {
	enclave *Enclave
	// workingSet accumulates bytes Touch()ed during the call for the EPC
	// paging model.
	workingSet int
	// ocalls / ocallOverhead attribute boundary exits made during this
	// call to it (CallStats). Trusted code runs an ECALL on one
	// goroutine, so plain fields suffice.
	ocalls        uint64
	ocallOverhead time.Duration
}

// Touch informs the EPC model that trusted code worked over n bytes of
// enclave memory during this call.
func (c *Context) Touch(n int) {
	if n > 0 {
		c.workingSet += n
	}
}

// Measurement returns the enclosing enclave's measurement, which trusted
// code may embed in reports.
func (c *Context) Measurement() [32]byte { return c.enclave.measurement }

// Seal encrypts data under the enclave's sealing identity.
func (c *Context) Seal(data []byte) ([]byte, error) {
	return sealWithKey(c.enclave.platform.sealKey(c.enclave.measurement), data)
}

// Unseal decrypts a blob sealed by this enclave identity on this platform.
func (c *Context) Unseal(blob []byte) ([]byte, error) {
	return unsealWithKey(c.enclave.platform.sealKey(c.enclave.measurement), blob)
}

// OCall leaves the enclave to run untrusted code, charging a boundary
// transition in each direction. Real enclaves need this for every syscall —
// one of the interaction risks §III-B describes.
func (c *Context) OCall(fn func() error) error {
	p := c.enclave.platform
	over := p.jittered(p.cost.TransitionLatency)
	inject(over)
	p.recordOCall(over)
	c.ocalls++
	c.ocallOverhead += over
	return fn()
}

// CallStats attributes one ECALL's simulated SGX cost to its caller, so
// per-request traces can decompose enclave time the way the platform-wide
// Stats aggregate does.
type CallStats struct {
	// OCalls counts boundary exits trusted code made during the call.
	OCalls uint64
	// PageFaults counts EPC paging events charged to the call.
	PageFaults uint64
	// Overhead is the injected SGX tax: the ECALL transition, in-enclave
	// slowdown, paging, plus any OCALL transitions.
	Overhead time.Duration
	// Compute is the trusted code's wall-clock (including time spent in
	// OCALLs it issued).
	Compute time.Duration
}

// Transitions counts the boundary crossings the call paid: the ECALL
// itself plus its OCALLs.
func (cs CallStats) Transitions() uint64 { return 1 + cs.OCalls }

// ECallContextStats is ECall with cancellation at the boundary, returning
// the call's attributed cost: if ctx is already done the call fails before
// paying the enclave transition. Trusted code cannot be preempted once
// entered (real enclaves run ECALLs to completion), so cancellation
// mid-call is not attempted — the check keeps cancelled requests from
// queueing new transitions.
func (e *Enclave) ECallContextStats(ctx context.Context, name string, input []byte) ([]byte, CallStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, CallStats{}, fmt.Errorf("sgx: ECALL %q not entered: %w", name, err)
	}
	return e.ECallStats(name, input)
}

// ECall invokes a named entry point inside the enclave: the input crosses
// the boundary, trusted code runs under the cost model (slowdown, paging,
// jitter), and the output crosses back.
func (e *Enclave) ECall(name string, input []byte) ([]byte, error) {
	out, _, err := e.ECallStats(name, input)
	return out, err
}

// ECallStats is ECall returning the call's attributed cost, whether or
// not the trusted code succeeded (a failed call still paid its
// transitions).
func (e *Enclave) ECallStats(name string, input []byte) ([]byte, CallStats, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, CallStats{}, fmt.Errorf("sgx: enclave %q is destroyed", e.name)
	}
	fn, ok := e.ecalls[name]
	e.mu.Unlock()
	if !ok {
		return nil, CallStats{}, fmt.Errorf("sgx: enclave %q has no ECALL %q", e.name, name)
	}

	ctx := &Context{enclave: e}
	ctx.Touch(len(input))
	start := time.Now()
	out, err := fn(ctx, input)
	compute := time.Since(start)
	ctx.Touch(len(out))

	overhead, faults := e.platform.overheadFor(compute, ctx.workingSet)
	inject(overhead)
	e.platform.recordECall(overhead, compute, faults)
	cs := CallStats{
		OCalls:     ctx.ocalls,
		PageFaults: faults,
		Overhead:   overhead + ctx.ocallOverhead,
		Compute:    compute,
	}
	if err != nil {
		return nil, cs, fmt.Errorf("sgx: ECALL %q: %w", name, err)
	}
	return out, cs, nil
}
