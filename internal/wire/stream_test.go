package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// chunkReader returns data in fixed-size chunks, so tests can force the
// Decoder through every partial-frame refill path.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
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

// pipelinedStream builds one byte stream of count request frames and the
// payloads it should decode to.
func pipelinedStream(count int) ([]byte, [][]byte) {
	var stream []byte
	var want [][]byte
	for i := 0; i < count; i++ {
		op := seqspec.Op{Kind: "put", Args: []int64{int64(i), int64(i) * -3}}
		payload := wire.AppendRequest(nil, uint64(i+1), op)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(payload)))
		stream = append(stream, payload...)
		want = append(want, payload)
	}
	return stream, want
}

// TestDecoderPipelined: many frames in one stream come back one by one,
// whatever the chunk size the kernel happens to deliver — including chunk
// sizes that split every length prefix and every payload.
func TestDecoderPipelined(t *testing.T) {
	stream, want := pipelinedStream(64)
	for _, chunk := range []int{1, 2, 3, 5, 7, 16, len(stream)} {
		d := wire.NewDecoderSize(&chunkReader{data: stream, n: chunk}, 32)
		for i, w := range want {
			got, err := d.Next()
			if err != nil {
				t.Fatalf("chunk=%d frame %d: %v", chunk, i, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("chunk=%d frame %d = %x, want %x", chunk, i, got, w)
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("chunk=%d: after last frame err = %v, want io.EOF", chunk, err)
		}
	}
}

// TestDecoderSplitEveryBoundary: the stream cut at every byte boundary
// must either decode the complete prefix of frames and then report
// ErrUnexpectedEOF, or io.EOF exactly at a frame boundary.
func TestDecoderSplitEveryBoundary(t *testing.T) {
	stream, want := pipelinedStream(4)
	boundaries := map[int]bool{0: true}
	off := 0
	for _, w := range want {
		off += 4 + len(w)
		boundaries[off] = true
	}
	for cut := 0; cut <= len(stream); cut++ {
		d := wire.NewDecoderSize(bytes.NewReader(stream[:cut]), 16)
		frames := 0
		for {
			got, err := d.Next()
			if err == nil {
				if !bytes.Equal(got, want[frames]) {
					t.Fatalf("cut=%d frame %d = %x, want %x", cut, frames, got, want[frames])
				}
				frames++
				continue
			}
			if boundaries[cut] {
				if err != io.EOF {
					t.Fatalf("cut=%d (frame boundary): err = %v, want io.EOF", cut, err)
				}
			} else if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut=%d (mid-frame): err = %v, want io.ErrUnexpectedEOF", cut, err)
			}
			break
		}
	}
}

// TestDecoderOversizedPrefix: a hostile length prefix is refused before
// any allocation, exactly like ReadFrame.
func TestDecoderOversizedPrefix(t *testing.T) {
	var stream []byte
	stream = binary.BigEndian.AppendUint32(stream, wire.MaxFrame+1)
	stream = append(stream, 0xff)
	d := wire.NewDecoder(bytes.NewReader(stream))
	if _, err := d.Next(); err != wire.ErrFrameTooBig {
		t.Fatalf("Next = %v, want ErrFrameTooBig", err)
	}
}

// TestDecoderGrowsForLargeFrame: a frame larger than the initial buffer is
// still decoded (one bounded reallocation), and decoding continues after.
func TestDecoderGrowsForLargeFrame(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 1000)
	var stream []byte
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(big)))
	stream = append(stream, big...)
	small := wire.AppendResponse(nil, 9, 42)
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(small)))
	stream = append(stream, small...)

	d := wire.NewDecoderSize(&chunkReader{data: stream, n: 13}, 16)
	got, err := d.Next()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: err=%v len=%d", err, len(got))
	}
	got, err = d.Next()
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("frame after growth: err=%v got=%x", err, got)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
}

// TestDecoderZeroAlloc: once warm, decoding frames that fit the buffer
// allocates nothing.
func TestDecoderZeroAlloc(t *testing.T) {
	stream, _ := pipelinedStream(8)
	var src bytes.Reader
	d := wire.NewDecoder(&src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		for {
			if _, err := d.Next(); err != nil {
				if err != io.EOF {
					t.Fatalf("Next: %v", err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decoder allocates %.1f per run, want 0", allocs)
	}
}

// TestAppendFrameHelpers: the coalescing frame appenders emit exactly what
// WriteFrame would, back to back in one buffer.
func TestAppendFrameHelpers(t *testing.T) {
	var want bytes.Buffer
	if err := wire.WriteFrame(&want, wire.AppendResponse(nil, 7, -5)); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&want, wire.AppendError(nil, 8, "nope")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	got = wire.AppendResponseFrame(got, 7, -5)
	got = wire.AppendErrorFrame(got, 8, "nope")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("coalesced frames = %x, want %x", got, want.Bytes())
	}

	// Both frames decode back out through the Decoder.
	d := wire.NewDecoder(bytes.NewReader(got))
	p, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if id, v, err := wire.DecodeReply(p); err != nil || id != 7 || v != -5 {
		t.Fatalf("reply 1 = (%d, %d, %v)", id, v, err)
	}
	p, err = d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if id, _, err := wire.DecodeReply(p); id != 8 || err == nil {
		t.Fatalf("reply 2 = (%d, %v), want id 8 and a RemoteError", id, err)
	}
}

// TestAppendRequestFrame: a request frame appended after other bytes is
// exactly what WriteFrame writes for the same payload, and it decodes back
// out through the Decoder.
func TestAppendRequestFrame(t *testing.T) {
	ops := []seqspec.Op{
		{Kind: "put", Args: []int64{7, -3}},
		{Kind: "len"},
		{Kind: "get", Args: []int64{-1 << 62}},
	}
	var want bytes.Buffer
	got := []byte{0xaa}
	for i, op := range ops {
		if err := wire.WriteFrame(&want, wire.AppendRequest(nil, uint64(i), op)); err != nil {
			t.Fatal(err)
		}
		got = wire.AppendRequestFrame(got, uint64(i), op)
	}
	if !bytes.Equal(got[1:], want.Bytes()) || got[0] != 0xaa {
		t.Fatalf("appended frames = %x, want aa%x", got, want.Bytes())
	}
	d := wire.NewDecoder(bytes.NewReader(got[1:]))
	for i, op := range ops {
		p, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if id, dec, err := wire.DecodeRequest(p); err != nil || id != uint64(i) || dec.String() != op.String() {
			t.Fatalf("frame %d = (%d, %s, %v), want (%d, %s, nil)", i, id, dec, err, i, op)
		}
	}
}

// TestDecodeRequestAllocs: a request of a kind the server serves decodes
// without copying its kind, so a len allocates nothing and a get only its
// Args. Decoded into a caller's buffer with room, as the server's reader
// decodes, no request of the four kinds allocates at all.
func TestDecodeRequestAllocs(t *testing.T) {
	for _, c := range []struct {
		op   seqspec.Op
		want float64
	}{
		{seqspec.Op{Kind: "len"}, 0},
		{seqspec.Op{Kind: "get", Args: []int64{42}}, 1},
	} {
		req := wire.AppendRequest(nil, 5, c.op)
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := wire.DecodeRequest(req); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("DecodeRequest of %s allocates %.0f times, want %.0f", c.op, got, c.want)
		}
	}
	args := make([]int64, 0, 3)
	for _, op := range []seqspec.Op{
		{Kind: "put", Args: []int64{42, -1}},
		{Kind: "get", Args: []int64{42}},
		{Kind: "del", Args: []int64{42}},
		{Kind: "len"},
	} {
		req := wire.AppendRequest(nil, 5, op)
		if _, dec, err := wire.DecodeRequestInto(req, args); err != nil || dec.String() != op.String() {
			t.Fatalf("DecodeRequestInto = (%s, %v), want %s", dec, err, op)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := wire.DecodeRequestInto(req, args); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("DecodeRequestInto of %s into a buffer with room allocates %.0f times, want 0", op, got)
		}
	}
}

// TestAppendErrorFrameTruncates: the frame length prefix must agree with
// AppendError's reason truncation, or the stream desynchronizes.
func TestAppendErrorFrameTruncates(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, 5000))
	b := wire.AppendErrorFrame(nil, 1, long)
	n := binary.BigEndian.Uint32(b)
	if int(n) != len(b)-4 {
		t.Fatalf("prefix says %d bytes, frame has %d", n, len(b)-4)
	}
	if _, _, err := wire.DecodeReply(b[4:]); err == nil {
		t.Fatalf("truncated-reason error frame decoded as success")
	}
}

// TestBufPool: pooled buffers come back empty and oversized ones are
// dropped rather than pinned.
func TestBufPool(t *testing.T) {
	b := wire.GetBuf()
	*b = append(*b, 1, 2, 3)
	wire.PutBuf(b)
	b2 := wire.GetBuf()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer has length %d, want 0", len(*b2))
	}
	wire.PutBuf(b2)
	huge := make([]byte, 0, wire.MaxFrame+1)
	wire.PutBuf(&huge) // must not panic; silently dropped
	wire.PutBuf(nil)   // nil-safe
}
