package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"waitfree/internal/seqspec"
)

// TestFrameRoundTrip: frames of assorted sizes survive a write/read cycle,
// including the empty payload, and buffer reuse returns the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {0x42}, bytes.Repeat([]byte("wf"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	scratch := make([]byte, 0, 8)
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %q, want %q", got, want)
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("EOF read = %v, want io.EOF", err)
	}
}

// TestFrameLimits: an oversized length prefix is refused before allocation,
// and a frame cut mid-payload is an unexpected EOF, not a clean one.
func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err != ErrFrameTooBig {
		t.Errorf("oversize write = %v, want ErrFrameTooBig", err)
	}
	big := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(big), nil); err != ErrFrameTooBig {
		t.Errorf("oversize read = %v, want ErrFrameTooBig", err)
	}
	cut := []byte{0, 0, 0, 8, 'h', 'i'}
	if _, err := ReadFrame(bytes.NewReader(cut), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("torn read = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestOpRoundTrip: the op encoding is exact over the KV op shapes and the
// int64 extremes (zig-zag varints must carry negatives and Empty).
func TestOpRoundTrip(t *testing.T) {
	ops := []seqspec.Op{
		{Kind: "len"},
		{Kind: "get", Args: []int64{7}},
		{Kind: "put", Args: []int64{-3, math.MaxInt64}},
		{Kind: "del", Args: []int64{math.MinInt64}},
		{Kind: "x", Args: []int64{seqspec.Empty, 0, 1}},
	}
	var b []byte
	for _, op := range ops {
		b = AppendOp(b, op)
	}
	for _, want := range ops {
		var got seqspec.Op
		var err error
		got, b, err = DecodeOp(b)
		if err != nil {
			t.Fatalf("DecodeOp: %v", err)
		}
		if got.String() != want.String() {
			t.Fatalf("op = %s, want %s", got, want)
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes after decoding all ops", len(b))
	}
}

// TestRequestReplyRoundTrip: request and both reply forms round-trip with
// their ids; the error reply surfaces as a RemoteError.
func TestRequestReplyRoundTrip(t *testing.T) {
	op := seqspec.Op{Kind: "put", Args: []int64{1, 2}}
	req := AppendRequest(nil, 99, op)
	id, got, err := DecodeRequest(req)
	if err != nil || id != 99 || got.String() != op.String() {
		t.Fatalf("DecodeRequest = (%d, %s, %v), want (99, %s, nil)", id, got, err, op)
	}
	id, v, err := DecodeReply(AppendResponse(nil, 7, -12))
	if err != nil || id != 7 || v != -12 {
		t.Fatalf("DecodeReply(resp) = (%d, %d, %v)", id, v, err)
	}
	id, _, err = DecodeReply(AppendError(nil, 8, "unknown op"))
	var re *RemoteError
	if id != 8 || !errors.As(err, &re) || re.Reason != "unknown op" {
		t.Fatalf("DecodeReply(err) = (%d, %v)", id, err)
	}
}

// TestDecodeTruncated: every strict prefix of a valid request fails with a
// decode error rather than panicking or succeeding.
func TestDecodeTruncated(t *testing.T) {
	req := AppendRequest(nil, 5, seqspec.Op{Kind: "put", Args: []int64{1, 1 << 40}})
	for i := 0; i < len(req); i++ {
		if _, _, err := DecodeRequest(req[:i]); err == nil {
			t.Fatalf("DecodeRequest accepted a %d/%d-byte prefix", i, len(req))
		}
	}
}

// TestVarintLenMatchesReencode: the canonical-length check computed from
// the value (varintLen) makes exactly the refusals of the check it
// replaced, which re-encoded the value with binary.PutVarint and compared
// lengths: over every boundary value, each encoded canonically, overlong
// by one byte up to ten, and past ten bytes.
func TestVarintLenMatchesReencode(t *testing.T) {
	reencode := func(b []byte) error {
		v, n := binary.Varint(b)
		if n <= 0 {
			return ErrTruncated
		}
		var canon [binary.MaxVarintLen64]byte
		if binary.PutVarint(canon[:], v) != n {
			return ErrNonCanonical
		}
		return nil
	}
	values := []int64{0, 1, -1, 63, -63, 64, -64, 8191, -8192, 8192, math.MinInt64, math.MaxInt64}
	for _, v := range values {
		canon := binary.AppendVarint(nil, v)
		encs := [][]byte{canon}
		// Overlong: a continuation bit on the last byte, then 0x80 bytes
		// and a final 0x00, which adds no value bits.
		for extra := 1; len(canon)+extra <= binary.MaxVarintLen64+1; extra++ {
			enc := append([]byte(nil), canon...)
			enc[len(enc)-1] |= 0x80
			for i := 1; i < extra; i++ {
				enc = append(enc, 0x80)
			}
			encs = append(encs, append(enc, 0))
		}
		for _, enc := range encs {
			op := append([]byte{3, 'p', 'u', 't', 1}, enc...)
			_, _, err := DecodeOp(op)
			if want := reencode(enc); err != want {
				t.Errorf("DecodeOp of %d encoded as %x: %v, the re-encoding check says %v", v, enc, err, want)
			}
			if len(enc) == len(canon) && err != nil {
				t.Errorf("DecodeOp of %d encoded canonically as %x: %v", v, enc, err)
			}
		}
	}
}

// TestDecodeNonCanonical: an overlong varint encoding of an argument is
// refused, so every operation has exactly one byte representation.
func TestDecodeNonCanonical(t *testing.T) {
	// -60 zig-zags to 0x77; pad it to the two-byte form 0xf7 0x00.
	enc := []byte{3, 'p', 'u', 't', 1, 0xf7, 0x00}
	if _, _, err := DecodeOp(enc); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("DecodeOp(overlong varint) = %v, want ErrNonCanonical", err)
	}
	canon := []byte{3, 'p', 'u', 't', 1, 0x77}
	op, rest, err := DecodeOp(canon)
	if err != nil || len(rest) != 0 || op.Args[0] != -60 {
		t.Fatalf("DecodeOp(canonical) = (%+v, %x, %v)", op, rest, err)
	}
}
