// Package wire is the service tier's binary encoding: length-prefixed
// frames on the wire, and the compact operation/request/response encodings
// shared by the TCP server (internal/server) and the crash-recoverable log
// store (internal/logstore). Hand-rolled rather than gob so a frame's cost
// is a few appends and no reflection, the format is stable across process
// restarts (the log store persists it), and a malformed peer can be
// rejected byte by byte with a bounded read.
//
// Frame layout: a 4-byte big-endian payload length, then the payload.
// Lengths above MaxFrame are refused before any allocation, so a garbage
// prefix cannot balloon a read buffer.
//
// Payloads the server understands (first payload byte is the message type):
//
//	MsgOp   request:  [1][u64 id][op]        — invoke op; id is echoed back
//	MsgResp response: [2][u64 id][i64 value] — op's response
//	MsgErr  response: [3][u64 id][u16 n][n bytes] — op refused, UTF-8 reason
//
// Responses to pipelined requests may come back in any order; the id a
// request carries is echoed in its response, and clients reassemble by id.
// (Pure reads can overtake in-flight writes on the server's pipelined hot
// path — see internal/server.) An operation is encoded as [u8 len][kind]
// [u8 argc][varint args...]; varints are the signed zig-zag form
// (encoding/binary's AppendVarint) since KV values are arbitrary int64s.
//
// The codec functions are straight-line code over byte slices and claim
// //wf:waitfree individually; only the frame I/O paths — WriteFrame,
// ReadFrame and the streaming Decoder (stream.go) — touch the syscall
// boundary and carry //wf:blocking.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"waitfree/internal/seqspec"
)

// MaxFrame is the largest payload the framing accepts, generous against
// the tier's biggest real payload (an op with a handful of varint args)
// while keeping a hostile length prefix from allocating gigabytes.
const MaxFrame = 1 << 20

// Message types (first payload byte).
const (
	MsgOp   = 1
	MsgResp = 2
	MsgErr  = 3
)

// ErrFrameTooBig is returned for a length prefix above MaxFrame.
var ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")

// ErrTruncated is returned when a payload ends before its declared content.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrNonCanonical is returned for an overlong varint encoding. Every
// encoder in this package emits the shortest form, so accepting padded
// forms would only let distinct byte strings alias the same operation.
var ErrNonCanonical = errors.New("wire: non-canonical varint")

// WriteFrame writes one length-prefixed frame. Callers batch small frames
// through a bufio.Writer; WriteFrame itself issues two writes.
//
//wf:blocking socket write: the kernel can stall on a slow peer's window
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough. Returns
// io.EOF only for a clean EOF on the length prefix; a connection cut mid-
// frame surfaces as io.ErrUnexpectedEOF.
//
//wf:blocking socket read: blocks until the peer sends a full frame
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// AppendOp appends op's encoding to b.
//
//wf:waitfree
func AppendOp(b []byte, op seqspec.Op) []byte {
	if len(op.Kind) > 255 || len(op.Args) > 255 {
		panic("wire: op kind or argument count out of range")
	}
	b = append(b, byte(len(op.Kind)))
	b = append(b, op.Kind...)
	b = append(b, byte(len(op.Args)))
	for _, a := range op.Args {
		b = binary.AppendVarint(b, a)
	}
	return b
}

// DecodeOp decodes one op from b and returns the remaining bytes. Varint
// arguments must be in canonical (shortest) form; overlong encodings are
// refused with ErrNonCanonical. The op's Args are freshly allocated.
//
//wf:waitfree
func DecodeOp(b []byte) (seqspec.Op, []byte, error) { return DecodeOpInto(b, nil) }

// DecodeOpInto is DecodeOp decoding the arguments into args' backing
// array when its capacity has room for them, so a caller that reuses one
// buffer decodes without allocating; otherwise it allocates as DecodeOp
// does. The returned op's Args alias args until the caller reuses it.
//
//wf:waitfree
func DecodeOpInto(b []byte, args []int64) (seqspec.Op, []byte, error) {
	if len(b) < 1 {
		return seqspec.Op{}, nil, ErrTruncated
	}
	kn := int(b[0])
	b = b[1:]
	if len(b) < kn+1 {
		return seqspec.Op{}, nil, ErrTruncated
	}
	op := seqspec.Op{Kind: opKind(b[:kn])}
	argc := int(b[kn])
	b = b[kn+1:]
	if argc > 0 {
		if cap(args) < argc {
			args = make([]int64, argc)
		}
		op.Args = args[:argc]
		for i := 0; i < argc; i++ {
			v, n := binary.Varint(b)
			if n <= 0 {
				return seqspec.Op{}, nil, ErrTruncated
			}
			if n != varintLen(v) {
				return seqspec.Op{}, nil, ErrNonCanonical
			}
			op.Args[i] = v
			b = b[n:]
		}
	}
	return op, b, nil
}

// varintLen is the length of v's canonical (shortest) varint encoding:
// one byte per started 7 bits of its zig-zag form, at least one.
//
//wf:waitfree
func varintLen(v int64) int {
	return (bits.Len64(uint64(v<<1)^uint64(v>>63)|1) + 6) / 7
}

// opKind returns the kind b spells: a constant string for each kind the
// server serves, so decoding one allocates nothing, or a fresh copy of
// anything else (which the server refuses by name).
//
//wf:waitfree
func opKind(b []byte) string {
	switch string(b) {
	case "put":
		return "put"
	case "get":
		return "get"
	case "del":
		return "del"
	case "len":
		return "len"
	}
	return string(b)
}

// AppendRequest appends a MsgOp request payload to b.
//
//wf:waitfree
func AppendRequest(b []byte, id uint64, op seqspec.Op) []byte {
	b = append(b, MsgOp)
	b = binary.BigEndian.AppendUint64(b, id)
	return AppendOp(b, op)
}

// DecodeRequest decodes a MsgOp payload (including its type byte). The
// op's Args are freshly allocated.
//
//wf:waitfree
func DecodeRequest(b []byte) (id uint64, op seqspec.Op, err error) {
	return DecodeRequestInto(b, nil)
}

// DecodeRequestInto is DecodeRequest decoding the op's arguments into
// args' backing array when it has room (see DecodeOpInto).
//
//wf:waitfree
func DecodeRequestInto(b []byte, args []int64) (id uint64, op seqspec.Op, err error) {
	if len(b) < 9 || b[0] != MsgOp {
		return 0, seqspec.Op{}, fmt.Errorf("wire: not a request payload (%w)", ErrTruncated)
	}
	id = binary.BigEndian.Uint64(b[1:9])
	op, rest, err := DecodeOpInto(b[9:], args)
	if err != nil {
		return 0, seqspec.Op{}, err
	}
	if len(rest) != 0 {
		return 0, seqspec.Op{}, errors.New("wire: trailing bytes after request")
	}
	return id, op, nil
}

// AppendResponse appends a MsgResp payload to b.
//
//wf:waitfree
func AppendResponse(b []byte, id uint64, value int64) []byte {
	b = append(b, MsgResp)
	b = binary.BigEndian.AppendUint64(b, id)
	return binary.BigEndian.AppendUint64(b, uint64(value))
}

// AppendError appends a MsgErr payload to b; long reasons are truncated.
//
//wf:waitfree
func AppendError(b []byte, id uint64, reason string) []byte {
	if len(reason) > 1<<10 {
		reason = reason[:1<<10]
	}
	b = append(b, MsgErr)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(reason)))
	return append(b, reason...)
}

// DecodeReply decodes a server reply payload: a MsgResp value or a MsgErr
// reason (returned as a non-nil error wrapping the reason text).
//
//wf:waitfree
func DecodeReply(b []byte) (id uint64, value int64, err error) {
	if len(b) < 9 {
		return 0, 0, ErrTruncated
	}
	id = binary.BigEndian.Uint64(b[1:9])
	switch b[0] {
	case MsgResp:
		if len(b) != 17 {
			return id, 0, ErrTruncated
		}
		return id, int64(binary.BigEndian.Uint64(b[9:17])), nil
	case MsgErr:
		if len(b) < 11 {
			return id, 0, ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(b[9:11]))
		if len(b) != 11+n {
			return id, 0, ErrTruncated
		}
		return id, 0, &RemoteError{Reason: string(b[11:])}
	}
	return id, 0, fmt.Errorf("wire: unknown reply type %d", b[0])
}

// RemoteError is a MsgErr reply: the server refused the operation (unknown
// kind, malformed encoding, no free pid) without closing the connection.
type RemoteError struct{ Reason string }

func (e *RemoteError) Error() string { return "wire: server: " + e.Reason }
