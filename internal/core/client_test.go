package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"hesgx/internal/nn"
)

// paperImage is a random query of the paper's 1×28×28 input geometry.
func paperImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed^3))
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

// checkSeededImage decrypts a seeded upload and compares every pixel, in
// order, with the quantized image it was encrypted from.
func checkSeededImage(c *Client, img *nn.Tensor, si *SeededCipherImage, scale uint64) error {
	ci, err := si.Expand()
	if err != nil {
		return err
	}
	got, err := c.DecryptValues(ci.CTs)
	if err != nil {
		return err
	}
	want := nn.QuantizeImage(img, float64(scale))
	if len(got) != len(want) {
		return fmt.Errorf("%d ciphertexts for %d pixels", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("pixel %d decrypts to %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// TestEncryptImageSeededParallel: the client builds one encryptor per core
// and spreads the pixels over them. Every ciphertext still decrypts to its
// own pixel, in order; no two encryptors share a stream, so no seed and no
// c0 repeats across clients, images or encryptors; and two goroutines may
// encrypt through one client at once.
func TestEncryptImageSeededParallel(t *testing.T) {
	const scale = 63
	params := testParams(t)
	svc := testService(t, params)
	seeds := map[[32]byte]int{}
	c0s := map[[32]byte]int{}
	record := func(si *SeededCipherImage) {
		for _, sc := range si.CTs {
			seeds[sc.Seed]++
			buf := make([]byte, 8*len(sc.C0.Coeffs))
			for i, v := range sc.C0.Coeffs {
				binary.LittleEndian.PutUint64(buf[8*i:], v)
			}
			c0s[sha256.Sum256(buf)]++
		}
	}

	var shared *Client
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			client := testClient(t, svc)
			if got := cap(client.sencs); got != procs {
				t.Fatalf("GOMAXPROCS %d: %d encryptors", procs, got)
			}
			for k := range 2 {
				img := paperImage(uint64(10*procs + k))
				si, err := client.EncryptImageSeeded(img, scale)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkSeededImage(client, img, si, scale); err != nil {
					t.Fatalf("GOMAXPROCS %d, image %d: %v", procs, k, err)
				}
				record(si)
			}
			shared = client
		}()
	}
	const cts = 4 * 28 * 28
	if len(seeds) != cts || len(c0s) != cts {
		t.Fatalf("%d distinct seeds and %d distinct c0 over %d ciphertexts", len(seeds), len(c0s), cts)
	}

	// Two callers share the four-encryptor client.
	var wg sync.WaitGroup
	out := make([]*SeededCipherImage, 2)
	errs := make([]error, 2)
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img := paperImage(uint64(100 + g))
			si, err := shared.EncryptImageSeeded(img, scale)
			if err == nil {
				err = checkSeededImage(shared, img, si, scale)
			}
			out[g], errs[g] = si, err
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("concurrent caller %d: %v", g, err)
		}
		record(out[g])
	}
	if len(seeds) != cts+2*28*28 || len(c0s) != len(seeds) {
		t.Fatalf("concurrent callers repeated a seed or c0: %d seeds, %d c0", len(seeds), len(c0s))
	}
}

// BenchmarkEncryptImageSeeded times one paper-geometry upload (784 seeded
// pixels) at the shipped n = 2048 parameters, over all of GOMAXPROCS.
func BenchmarkEncryptImageSeeded(b *testing.B) {
	params, err := DefaultHybridParameters()
	if err != nil {
		b.Fatal(err)
	}
	client := testClient(b, testService(b, params))
	img := paperImage(1)
	scale := DefaultConfig().PixelScale
	b.ResetTimer()
	for range b.N {
		if _, err := client.EncryptImageSeeded(img, scale); err != nil {
			b.Fatal(err)
		}
	}
}
