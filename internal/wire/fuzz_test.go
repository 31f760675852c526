package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// frame wraps a payload in the 4-byte big-endian length prefix ReadFrame
// expects, without going through WriteFrame (so the fuzzer can also feed
// prefixes WriteFrame would refuse).
func frame(payload []byte) []byte {
	b := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// FuzzDecodeFrame drives the full receive path a hostile or corrupted peer
// exercises: ReadFrame over raw bytes, then every payload decoder. The
// invariants are the codec's contract, not any particular message: no
// decoder may panic or over-read, and a payload that decodes cleanly must
// survive a re-encode/re-decode round trip bit-for-bit.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with the shapes the unit tests pin: well-formed frames of each
	// message type, the refusal boundaries, and truncations.
	f.Add(frame(wire.AppendRequest(nil, 1, seqspec.Op{Kind: "put", Args: []int64{7, -3}})))
	f.Add(frame(wire.AppendRequest(nil, 2, seqspec.Op{Kind: "len"})))
	f.Add(frame(wire.AppendResponse(nil, 3, -1)))
	f.Add(frame(wire.AppendError(nil, 4, "no free pid")))
	f.Add(frame(nil))                                                                   // empty payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                               // prefix above MaxFrame
	f.Add([]byte{0, 0, 0, 9, wire.MsgOp, 0, 0})                                         // cut mid-frame
	f.Add(frame([]byte{wire.MsgErr, 0, 0, 0, 0, 0, 0, 0, 5, 0, 200}))                   // reason longer than payload
	f.Add(frame([]byte{wire.MsgOp, 0, 0, 0, 0, 0, 0, 0, 6, 3, 'p', 'u', 't', 1, 0x80})) // truncated varint

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := wire.ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			// Any error is fine; the framing just must refuse over-long
			// prefixes before allocating and report clean vs dirty EOF.
			if err == io.EOF && len(data) != 0 && len(data) < 4 {
				t.Fatalf("ReadFrame(%x) = io.EOF on a partial length prefix", data)
			}
			return
		}
		if len(payload) > wire.MaxFrame {
			t.Fatalf("ReadFrame returned %d bytes, above MaxFrame", len(payload))
		}

		// Decoding into a reused buffer must agree with the allocating
		// decoder whatever the buffer held before, and leave nothing of
		// its old contents in the op.
		id, op, err := wire.DecodeRequest(payload)
		reused := []int64{sentinel, sentinel, sentinel}
		id2, op2, err2 := wire.DecodeRequestInto(payload, reused[:0])
		if id2 != id || !opEqual(op2, op) || (err2 == nil) != (err == nil) ||
			(err != nil && err2.Error() != err.Error()) {
			t.Fatalf("DecodeRequestInto(%x) = (%d, %+v, %v), DecodeRequest = (%d, %+v, %v)", payload, id2, op2, err2, id, op, err)
		}

		// Decoders must tolerate the payload regardless of its type byte.
		if err == nil {
			re := wire.AppendRequest(nil, id, op)
			if !bytes.Equal(re, payload) {
				t.Fatalf("request round trip: %x -> (%d, %+v) -> %x", payload, id, op, re)
			}
			id2, op2, err2 := wire.DecodeRequest(re)
			if err2 != nil || id2 != id || !opEqual(op, op2) {
				t.Fatalf("re-decode of %x: (%d, %+v, %v)", re, id2, op2, err2)
			}
		}
		if id, v, err := wire.DecodeReply(payload); err == nil && payload[0] == wire.MsgResp {
			re := wire.AppendResponse(nil, id, v)
			if !bytes.Equal(re, payload) {
				t.Fatalf("response round trip: %x -> (%d, %d) -> %x", payload, id, v, re)
			}
		}
		if op, rest, err := wire.DecodeOp(payload); err == nil && len(rest) == 0 {
			if re := wire.AppendOp(nil, op); !bytes.Equal(re, payload) {
				t.Fatalf("op round trip: %x -> %+v -> %x", payload, op, re)
			}
		}
	})
}

// FuzzDecodeStream drives the streaming Decoder the pipelined server hot
// path uses, differentially against the one-frame ReadFrame reference:
// over the same byte stream both must produce the same frame sequence and
// the same terminal error, whatever chunk sizes the transport delivers —
// the fuzzer's streams include multi-frame pipelined input, frames split
// at every boundary (chunk size 1 exercises all of them), and corruption
// mid-stream (a flipped length prefix desynchronizes everything after it
// identically for both decoders).
func FuzzDecodeStream(f *testing.F) {
	// Pipelined multi-frame stream: several requests back to back, as a
	// client burst puts them on the wire.
	var burst []byte
	for i := 0; i < 5; i++ {
		burst = append(burst, frame(wire.AppendRequest(nil, uint64(i+1),
			seqspec.Op{Kind: "put", Args: []int64{int64(i), int64(-i)}}))...)
	}
	f.Add(burst)
	// Coalesced response stream, as the server's writer flushes it.
	var acks []byte
	acks = wire.AppendResponseFrame(acks, 1, 10)
	acks = wire.AppendErrorFrame(acks, 2, "refused")
	acks = wire.AppendResponseFrame(acks, 3, -1)
	f.Add(acks)
	// Corrupt mid-stream: a clean frame, then a garbage length prefix.
	corrupt := append(append([]byte{}, frame(wire.AppendResponse(nil, 1, 7))...),
		0xff, 0xff, 0xff, 0xff, 1, 2, 3)
	f.Add(corrupt)
	// Cut mid-frame after a clean frame.
	f.Add(append(append([]byte{}, frame(nil)...), 0, 0, 0, 9, wire.MsgOp))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference: the loop a pre-pipelining server ran.
		var refFrames [][]byte
		var refErr error
		ref := bytes.NewReader(data)
		for {
			p, err := wire.ReadFrame(ref, nil)
			if err != nil {
				refErr = err
				break
			}
			refFrames = append(refFrames, append([]byte(nil), p...))
		}

		// The Decoder must agree whatever the chunking; chunk 1 splits at
		// every boundary, 3 and 16 straddle prefixes, 0 means one read.
		for _, chunk := range []int{0, 1, 3, 16} {
			var r io.Reader = bytes.NewReader(data)
			if chunk > 0 {
				r = iotest.OneByteReader(bytes.NewReader(data))
				if chunk > 1 {
					r = &chunked{data: data, n: chunk}
				}
			}
			d := wire.NewDecoderSize(r, 16)
			for i := 0; ; i++ {
				p, err := d.Next()
				if err != nil {
					if err != refErr {
						t.Fatalf("chunk=%d: terminal error %v, ReadFrame reference %v", chunk, err, refErr)
					}
					if i != len(refFrames) {
						t.Fatalf("chunk=%d: %d frames before error, reference %d", chunk, i, len(refFrames))
					}
					break
				}
				if len(p) > wire.MaxFrame {
					t.Fatalf("chunk=%d: frame of %d bytes above MaxFrame", chunk, len(p))
				}
				if i >= len(refFrames) || !bytes.Equal(p, refFrames[i]) {
					t.Fatalf("chunk=%d: frame %d diverges from ReadFrame reference", chunk, i)
				}
			}
		}
	})
}

// chunked returns data in fixed-size chunks (the fuzz harness's own copy;
// the exported Decoder tests keep theirs).
type chunked struct {
	data []byte
	n    int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// sentinel pre-fills the reused decode buffer: a decoder that leaked the
// buffer's old words into an op would surface it.
const sentinel = -0x5e47

func opEqual(a, b seqspec.Op) bool {
	if a.Kind != b.Kind || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}
