package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/trace"
)

// countSpans returns how many spans of tr carry the given name.
func countSpans(tr *trace.Trace, name string) int {
	n := 0
	for _, s := range tr.Spans() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestRoundTripBytesAndSpans pins the one client exchange and the one server
// handler across every request shape they carry — scalar seeded, slot-packed,
// lane batch — with and without the traced envelope: logits equal the
// plaintext integer oracle, the bytes the server counted are exactly the
// codec's declared sizes plus framing, each request is observed once, and
// each client and wire span appears once.
func TestRoundTripBytesAndSpans(t *testing.T) {
	addr, st, shutdown := testStackPacked(t)
	defer shutdown()
	imgs := []*nn.Tensor{testImage(71), testImage(72)}

	// Each shape: the round trip under test and the exact size of the image
	// encoding it uploads (sizes depend on geometry and parameters only, so a
	// second encryption measures them).
	shapes := []struct {
		name  string
		lanes int
		infer func(c *Client) ([][]float64, error)
		size  func(c *core.Client) (int, error)
	}{
		{"scalar seeded", 0,
			func(c *Client) ([][]float64, error) {
				out, err := c.Infer(imgs[0], 63)
				return [][]float64{out}, err
			},
			func(c *core.Client) (int, error) {
				si, err := c.EncryptImageSeeded(imgs[0], 63)
				if err != nil {
					return 0, err
				}
				return core.SeededCipherImageSize(si), nil
			}},
		{"slot-packed", 0,
			func(c *Client) ([][]float64, error) {
				out, err := c.InferPacked(imgs[0], 63)
				return [][]float64{out}, err
			},
			func(c *core.Client) (int, error) {
				ci, err := c.EncryptImagePacked(imgs[0], 63)
				if err != nil {
					return 0, err
				}
				return core.CipherImagePackedSize(ci), nil
			}},
		{"lane batch of 2", 2,
			func(c *Client) ([][]float64, error) { return c.InferBatch(imgs, 63) },
			func(c *core.Client) (int, error) {
				ci, err := c.EncryptImages(imgs, 63)
				if err != nil {
					return 0, err
				}
				return core.CipherImagePackedSize(ci), nil
			}},
	}
	replies := uint64(0)
	for _, sh := range shapes {
		for _, traced := range []bool{false, true} {
			name := sh.name + "/untraced"
			var opts []ClientOption
			if traced {
				name = sh.name + "/traced"
				opts = append(opts, WithClientTracer(nil))
			}
			t.Run(name, func(t *testing.T) {
				// Counters are read before the connection exists and compared
				// with every byte the client itself moved over it, so no
				// server-side accounting of the handshake can trail the
				// snapshot.
				reqs := st.metrics.Histogram("wire.request_bytes").Snapshot()
				reps := st.metrics.Histogram("wire.reply_bytes").Snapshot()
				in := st.metrics.Counter("wire.bytes_in").Value()
				out := st.metrics.Counter("wire.bytes_out").Value()
				client, err := Dial(addr, attest.NewService(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				link := &countingConn{Conn: client.conn}
				client.conn = link
				if err := client.FetchTrustBundle(); err != nil {
					t.Fatal(err)
				}
				if err := client.Attest(); err != nil {
					t.Fatal(err)
				}
				sent, received := link.w, link.r

				got, err := sh.infer(client)
				if err != nil {
					t.Fatal(err)
				}
				replies++
				waitReplies(t, st.metrics, replies)

				for i := range got {
					want, err := st.engine.ReferenceForward(imgs[i])
					if err != nil {
						t.Fatal(err)
					}
					if len(got[i]) != len(want) {
						t.Fatalf("image %d: %d logits, want %d", i, len(got[i]), len(want))
					}
					for j, w := range want {
						if got[i][j] != float64(w)/st.engine.OutScale() {
							t.Fatalf("image %d logit %d: %v != oracle %d/%v", i, j, got[i][j], w, st.engine.OutScale())
						}
					}
				}

				// Request: [traced header][lane count][image], one frame.
				image, err := sh.size(client.inner)
				if err != nil {
					t.Fatal(err)
				}
				inner := image
				if sh.lanes > 0 {
					inner += 4
				}
				payload := inner
				if traced {
					payload += TracedHeaderSize
				}
				reqsAfter := st.metrics.Histogram("wire.request_bytes").Snapshot()
				if reqsAfter.Count != reqs.Count+1 || reqsAfter.Sum-reqs.Sum != float64(inner) {
					t.Errorf("wire.request_bytes: %d observations adding %g B, want 1 of %d B",
						reqsAfter.Count-reqs.Count, reqsAfter.Sum-reqs.Sum, inner)
				}
				if d := link.w - sent; d != int64(payload)+frameHeaderSize {
					t.Errorf("request put %d B on the socket, want payload %d + %d", d, payload, frameHeaderSize)
				}
				if d := st.metrics.Counter("wire.bytes_in").Value() - in; d != link.w {
					t.Errorf("wire.bytes_in grew %d over a connection that carried %d B up", d, link.w)
				}

				// Reply: [traced reply header + blob][lane count][scale][logits].
				repsAfter := st.metrics.Histogram("wire.reply_bytes").Snapshot()
				if repsAfter.Count != reps.Count+1 {
					t.Fatalf("wire.reply_bytes: %d observations, want 1", repsAfter.Count-reps.Count)
				}
				reply := int64(repsAfter.Sum - reps.Sum)
				if d := link.r - received; d != reply+frameHeaderSize {
					t.Errorf("reply took %d B off the socket, want payload %d + %d", d, reply, frameHeaderSize)
				}
				if d := st.metrics.Counter("wire.bytes_out").Value() - out; d != link.r {
					t.Errorf("wire.bytes_out grew %d over a connection that carried %d B down", d, link.r)
				}
				// Four logits, each a size-2 packed ciphertext rounded to the
				// engine's reply drops, behind the 11-byte batch header.
				d0, d1 := st.engine.ReplyRounding()
				plain := 8 + 11 + 4*he.MinCiphertextWireSize(client.Params(), d0, d1)
				if sh.lanes > 0 {
					plain += 4
				}
				if !traced && reply != int64(plain) {
					t.Errorf("reply payload %d B, want %d", reply, plain)
				}
				if traced && reply <= int64(plain+TracedReplyHeaderSize) {
					t.Errorf("traced reply payload %d B carries no blob (plain reply is %d B)", reply, plain)
				}

				// Spans: the client's four stages once each in its own trace
				// (none without a tracer), the server's decode and encode once
				// each in the trace its flight recorder retained.
				ct := client.LastTrace()
				if !traced && ct != nil {
					t.Error("untraced client assembled a trace")
				}
				if traced {
					for _, name := range []string{"client.encrypt", "client.upload", "client.wait", "client.decrypt", "wire.decode"} {
						if n := countSpans(ct, name); n != 1 {
							t.Errorf("client trace holds %d %s spans, want 1", n, name)
						}
					}
				}
				last := st.service.Tracer.Last(1)
				if len(last) != 1 {
					t.Fatal("server retained no trace")
				}
				if traced && last[0].ID != ct.ID {
					t.Errorf("server trace ID %d, client minted %d", last[0].ID, ct.ID)
				}
				for _, name := range []string{"wire.decode", "wire.encode"} {
					if n := countSpans(last[0], name); n != 1 {
						t.Errorf("server trace holds %d %s spans, want 1", n, name)
					}
				}
			})
		}
	}
}

// countingConn counts the bytes a client moves over its connection.
type countingConn struct {
	net.Conn
	r, w int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w += int64(n)
	return n, err
}

// failAfterConn fails every write once budget bytes have gone out and records
// whether the client closed it.
type failAfterConn struct {
	net.Conn
	budget int
	closed bool
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if len(p) > c.budget {
		return 0, errors.New("link down")
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

func (c *failAfterConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// TestMidUploadFailureClosesConnection: an upload that dies after part of
// the frame reached the transport comes back as *PartialFrameError and the
// client closes the connection — nothing else can be framed on it.
func TestMidUploadFailureClosesConnection(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	client := dialAttested(t, addr)
	// The 64-pixel seeded image is several 32 KB flushes long: the first
	// passes, the second fails.
	link := &failAfterConn{Conn: client.conn, budget: 40 << 10}
	client.conn = link

	_, err := client.Infer(testImage(81), 63)
	var partial *PartialFrameError
	if !errors.As(err, &partial) {
		t.Fatalf("got %v, want *PartialFrameError", err)
	}
	if !link.closed {
		t.Fatal("client kept a connection holding a truncated frame open")
	}
}

// TestRetiredV1ImageIsBadRequest: the bytes a pre-v2 client would send —
// dims, scale, count, fixed-width ciphertext frames — come back as a typed
// bad request, and the connection serves the next request.
func TestRetiredV1ImageIsBadRequest(t *testing.T) {
	addr, _, _, shutdown := testStack(t)
	defer shutdown()
	client := dialAttested(t, addr)
	ci, err := client.inner.EncryptImages([]*nn.Tensor{testImage(82)}, 63)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	for _, v := range []any{uint32(ci.Channels), uint32(ci.Height), uint32(ci.Width), ci.Scale, uint32(len(ci.CTs))} {
		if err := binary.Write(&v1, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, ct := range ci.CTs {
		if err := ct.Write(&v1); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFrame(client.conn, MsgInferRequest, v1.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := ReadFrame(client.conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("v1 image answered with message type %d, want error frame", typ)
	}
	if se := DecodeError(reply); se.Code != CodeBadRequest {
		t.Fatalf("got %v, want bad-request", se)
	}
	if _, err := client.Infer(testImage(82), 63); err != nil {
		t.Fatalf("connection unusable after the refused v1 image: %v", err)
	}
}
