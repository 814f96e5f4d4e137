package wire

import (
	"bytes"
	mrand "math/rand/v2"
	"testing"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/serve"
)

// assertOracle fails unless logits equal the plaintext integer oracle of img
// exactly.
func assertOracle(t *testing.T, st *pipelineStack, route string, img *nn.Tensor, logits []float64) {
	t.Helper()
	want, err := st.engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != len(want) {
		t.Fatalf("%s: %d logits, want %d", route, len(logits), len(want))
	}
	for j, w := range want {
		if logits[j] != float64(w)/st.engine.OutScale() {
			t.Fatalf("%s: logit %d = %v, oracle %d/%v", route, j, logits[j], w, st.engine.OutScale())
		}
	}
}

// TestRoundedRepliesOracleExactOnEveryRoute: the server rounds every reply to
// its engine's plan-time drops, and each route a logit can take back to the
// client — the scalar upload's coefficient tail, the slot-packed prefix, a
// client-packed SIMD batch, and a server lane batch split by lane_demux —
// still decrypts to the plaintext integer oracle exactly.
func TestRoundedRepliesOracleExactOnEveryRoute(t *testing.T) {
	t.Run("scalar, packed and client SIMD batch", func(t *testing.T) {
		addr, st, shutdown := testStackPacked(t)
		defer shutdown()
		if d0, d1 := st.engine.ReplyRounding(); d0 == 0 || d1 == 0 {
			t.Fatalf("engine rounds replies by (%d, %d); the routes would not be exercised", d0, d1)
		}
		client := attestedClient(t, addr)
		imgs := []*nn.Tensor{testImage(91), testImage(92)}
		scalar, err := client.Infer(imgs[0], 63)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, st, "scalar", imgs[0], scalar)
		packed, err := client.InferPacked(imgs[1], 63)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, st, "slot-packed", imgs[1], packed)
		batch, err := client.InferBatch(imgs, 63)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range imgs {
			assertOracle(t, st, "client SIMD batch", img, batch[i])
		}
	})

	t.Run("lane batch reply", func(t *testing.T) {
		params, err := core.DefaultSIMDParameters()
		if err != nil {
			t.Fatal(err)
		}
		r := mrand.New(mrand.NewPCG(5, 6))
		model := nn.NewNetwork(
			nn.NewConv2D(1, 2, 3, 1, r),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(2*6*6, 4, r),
		)
		const k = 2
		addr, st, _, shutdown := testStackLanesFor(t, params, model,
			serve.LaneConfig{MaxLanes: k, MinLanes: k, Window: time.Minute}, core.WithScales(63, 8, 256))
		defer shutdown()
		if d0, d1 := st.engine.ReplyRounding(); d0 == 0 || d1 == 0 {
			t.Fatalf("engine rounds replies by (%d, %d); the route would not be exercised", d0, d1)
		}
		type reply struct {
			logits []float64
			err    error
		}
		imgs := make([]*nn.Tensor, k)
		replies := make([]chan reply, k)
		for i := range imgs {
			imgs[i] = nn.NewTensor(1, 14, 14)
			for j := range imgs[i].Data {
				imgs[i].Data[j] = r.Float64()
			}
			client := attestedClient(t, addr)
			replies[i] = make(chan reply, 1)
			go func(i int) {
				logits, err := client.Infer(imgs[i], 63)
				replies[i] <- reply{logits, err}
			}(i)
		}
		for i := range imgs {
			rep := <-replies[i]
			if rep.err != nil {
				t.Fatalf("vehicle %d: %v", i, rep.err)
			}
			assertOracle(t, st, "lane batch reply", imgs[i], rep.logits)
		}
		if got := st.metrics.Counter("serve.lanes.packed_requests").Value(); got != k {
			t.Fatalf("%d requests lane-packed, want %d", got, k)
		}
	})
}

// TestUnroundedSeededUploadIsBadRequest: a seeded upload whose elements lack
// the rounded flag — the full-width frame written before uploads were
// rounded, or a rounded c0 that lost its flag — is a typed bad request, the
// enclave never sees it, and the connection serves the next request.
func TestUnroundedSeededUploadIsBadRequest(t *testing.T) {
	addr, st, shutdown := testStackPipeline(t, nil)
	defer shutdown()
	client := dialAttested(t, addr)
	si, err := client.inner.EncryptImageSeeded(testImage(93), 63)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := core.MarshalSeededCipherImage(si)
	if err != nil {
		t.Fatal(err)
	}
	platform := st.svc.Enclave().Platform()
	for _, fullWidth := range []bool{true, false} {
		// The 29-byte image header, then each element re-encoded under the
		// packed flag alone.
		payload := bytes.NewBuffer(bytes.Clone(valid[:29]))
		for _, sc := range si.CTs {
			elem, err := he.MarshalSeededCiphertext(sc)
			if err != nil {
				t.Fatal(err)
			}
			elem[4] = 1
			payload.Write(elem[:25+he.SeedSize])
			d := sc.Params.SeededDropBits()
			if fullWidth {
				d = 0
			}
			if err := ring.WritePolyPacked(payload, sc.C0, sc.Params.Q, d); err != nil {
				t.Fatal(err)
			}
		}
		before := platform.Snapshot()
		if err := WriteFrame(client.conn, MsgInferRequest, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
		typ, reply, err := ReadFrame(client.conn)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgError {
			t.Fatalf("full width %v: answered with message type %d, want an error frame", fullWidth, typ)
		}
		if se := DecodeError(reply); se.Code != CodeBadRequest {
			t.Fatalf("full width %v: got %v, want bad-request", fullWidth, se)
		}
		if got := platform.Snapshot().Sub(before).ECalls; got != 0 {
			t.Fatalf("full width %v: refused upload cost %d ECALLs", fullWidth, got)
		}
	}
	if _, err := client.Infer(testImage(93), 63); err != nil {
		t.Fatalf("connection unusable after the refused uploads: %v", err)
	}
}
