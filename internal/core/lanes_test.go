package core

import (
	"context"
	"strings"
	"testing"

	"hesgx/internal/he"
)

func TestEncryptImagesSingleEncodesScalar(t *testing.T) {
	// One image must work on any parameter set — no batching modulus needed.
	params := testParams(t) // t = 2^20, non-batching
	svc := testService(t, params)
	client := testClient(t, svc)
	ci, err := client.EncryptImages(toTensors(tinyImage(1)), 63)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lanes != 1 {
		t.Fatalf("single image carries %d lanes, want 1", ci.Lanes)
	}
}

func TestEncryptImagesNonBatchingModulusError(t *testing.T) {
	params := testParams(t) // t = 2^20, non-batching
	svc := testService(t, params)
	client := testClient(t, svc)
	_, err := client.EncryptImages(toTensors(tinyImage(1), tinyImage(2)), 63)
	if err == nil {
		t.Fatal("multi-image batch accepted without a batching modulus")
	}
	// The error must name the actual requirement so users can fix their
	// parameter choice: a prime plaintext modulus t ≡ 1 mod 2n.
	if !strings.Contains(err.Error(), "t ≡ 1 mod 2n") {
		t.Fatalf("error does not name the batching-modulus requirement: %v", err)
	}
}

func TestEncryptImagesRecordsLanes(t *testing.T) {
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	ci, err := client.EncryptImages(toTensors(tinyImage(1), tinyImage(2), tinyImage(3)), 63)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lanes != 3 {
		t.Fatalf("batch of 3 carries %d lanes", ci.Lanes)
	}
	if len(ci.CTs) != tinyImage(1).Len() {
		t.Fatalf("batch packed %d ciphertexts, want one per pixel position (%d)", len(ci.CTs), tinyImage(1).Len())
	}
}

func TestSlotCapacity(t *testing.T) {
	if _, err := SlotCapacity(testParams(t)); err == nil {
		t.Fatal("non-batching modulus reported slot capacity")
	}
	slots, err := SlotCapacity(simdTestParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if slots != 1024 {
		t.Fatalf("slot capacity %d, want n = 1024", slots)
	}
}

func TestLaneOpValidation(t *testing.T) {
	for _, c := range []struct {
		op NonlinearOp
		ok bool
	}{
		{NonlinearOp{Kind: OpLanePack, Lanes: 2}, true},
		{NonlinearOp{Kind: OpLaneDemux, Lanes: 64}, true},
		{NonlinearOp{Kind: OpLanePack}, false},
		{NonlinearOp{Kind: OpLanePack, Lanes: 1}, false},
		{NonlinearOp{Kind: OpLaneDemux, Lanes: -3}, false},
	} {
		err := c.op.Validate()
		if c.ok && err != nil {
			t.Errorf("%s lanes=%d: unexpected error %v", c.op.Kind, c.op.Lanes, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s lanes=%d: validation passed, want error", c.op.Kind, c.op.Lanes)
		}
	}
	if OpLanePack.String() != "lane_pack" || OpLaneDemux.String() != "lane_demux" {
		t.Fatal("lane op kind names changed")
	}
}

// TestLanePackDemuxRoundTrip drives the two repack ECALLs directly: k
// scalar-encoded images packed into slot lanes and demultiplexed back must
// reproduce every original value exactly, with the packed intermediates in
// lane-major slot layout.
func TestLanePackDemuxRoundTrip(t *testing.T) {
	const k = 3
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)

	imgs := make([]*nnTensor, k)
	flat := make([]*he.Ciphertext, 0)
	want := make([][]int64, k)
	for i := range imgs {
		imgs[i] = tinyImage(uint64(20 + i))
		ci, err := client.encryptImageScalar(imgs[i], 63)
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, ci.CTs...)
		if want[i], err = client.DecryptValues(ci.CTs); err != nil {
			t.Fatal(err)
		}
	}
	p := len(want[0])

	packed, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpLanePack, Lanes: k}, flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != p {
		t.Fatalf("pack returned %d ciphertexts, want %d positions", len(packed), p)
	}
	// Slot layout: slot i of packed position j is pixel j of image i.
	slots, err := client.DecryptValueBatch(packed, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < p; j++ {
			if slots[i][j] != want[i][j] {
				t.Fatalf("packed lane %d position %d: %d, want %d", i, j, slots[i][j], want[i][j])
			}
		}
	}

	outs, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpLaneDemux, Lanes: k}, packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != k*p {
		t.Fatalf("demux returned %d ciphertexts, want %d", len(outs), k*p)
	}
	for i := 0; i < k; i++ {
		got, err := client.DecryptValues(outs[i*p : (i+1)*p])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p; j++ {
			if got[j] != want[i][j] {
				t.Fatalf("demuxed lane %d position %d: %d, want %d", i, j, got[j], want[i][j])
			}
		}
	}
}

func TestLanePackRejectsBadShapes(t *testing.T) {
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	ci, err := client.encryptImageScalar(tinyImage(30), 63)
	if err != nil {
		t.Fatal(err)
	}
	// 3 lanes over a ciphertext count not divisible by 3.
	bad := ci.CTs[:len(ci.CTs)-(len(ci.CTs)%3)+1]
	if _, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpLanePack, Lanes: 3}, bad); err == nil {
		t.Fatal("lane pack accepted a batch not divisible by the lane count")
	}
}
