package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"hesgx/internal/linear"
)

func TestParallelForSequentialAndParallel(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		var sum atomic.Int64
		if err := linear.ParallelFor(100, workers, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := sum.Load(); got != 4950 {
			t.Fatalf("workers=%d sum=%d", workers, got)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := linear.ParallelFor(50, 4, func(i int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	// Sequential path too.
	err = linear.ParallelFor(50, 1, func(i int) error {
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("sequential got %v", err)
	}
}

// TestParallelForStopsDispatchAfterError: once a shard fails, the dispatcher
// must stop feeding indices instead of draining the whole range — a failed
// 784-output layer should not run its remaining outputs.
func TestParallelForStopsDispatchAfterError(t *testing.T) {
	const n = 100000
	sentinel := errors.New("boom")
	var calls atomic.Int64
	err := linear.ParallelFor(n, 4, func(i int) error {
		calls.Add(1)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	// Every call errors, so the first completed call closes the abort signal.
	// After that, workers drain queued indices without running them and the
	// dispatcher re-checks the signal before every send, so only calls that
	// were already in flight when the signal closed may still land — a small
	// constant, not a fraction of the range.
	if got := calls.Load(); got > 1000 {
		t.Fatalf("dispatched %d of %d indices after first error", got, n)
	}
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(81)
	img := tinyImage(81)

	run := func(workers int) []int64 {
		cfg := testConfig()
		cfg.Workers = workers
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := client.encryptImageScalar(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Infer(ci)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptValues(res.Logits)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq := run(1)
	par := run(4)
	auto := run(-1)
	for i := range seq {
		if par[i] != seq[i] || auto[i] != seq[i] {
			t.Fatalf("logit %d: sequential %d, workers=4 %d, workers=-1 %d", i, seq[i], par[i], auto[i])
		}
	}
	// And the parallel result still matches the plaintext reference.
	cfg := testConfig()
	cfg.Workers = 4
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if par[i] != want[i] {
			t.Fatalf("parallel logit %d: %d != reference %d", i, par[i], want[i])
		}
	}
}
