package wire

import (
	"encoding/binary"
	"io"
	"sync"

	"waitfree/internal/seqspec"
)

// This file is the pipelined hot path's half of the codec: a streaming
// frame Decoder that amortizes read syscalls over many frames, frame-level
// append helpers that let a writer coalesce many responses into one buffer
// (and so one write syscall), and a pooled scratch buffer so the encode
// path allocates nothing in steady state.

// decoderBuf is the Decoder's default buffer size: large enough that a
// deep pipelined burst (hundreds of ~20-byte request frames) arrives in
// one read syscall, small enough to be cheap per connection.
const decoderBuf = 64 << 10

// Decoder reads length-prefixed frames from a byte stream through one
// reusable buffer. One kernel read typically delivers many pipelined
// frames; Next hands them out one by one without further syscalls or
// allocations (the buffer grows only for a frame larger than itself, and
// never beyond MaxFrame plus the 4-byte prefix).
//
// Decoder replaces the ReadFrame-over-bufio pattern on the server's hot
// path: same framing, same refusal of oversized prefixes before any
// allocation, but zero steady-state garbage and one buffer instead of two.
// It is not safe for concurrent use.
type Decoder struct {
	r   io.Reader
	buf []byte
	// buf[start:end] holds bytes read from the stream but not yet returned.
	start, end int
}

// NewDecoder returns a Decoder over r with the default buffer.
func NewDecoder(r io.Reader) *Decoder { return NewDecoderSize(r, decoderBuf) }

// NewDecoderSize returns a Decoder with a specific initial buffer size
// (clamped to at least 8 bytes); the buffer still grows on demand for
// frames larger than it. Small sizes exist so tests can drive the
// compaction and growth paths deterministically.
func NewDecoderSize(r io.Reader, size int) *Decoder {
	if size < 8 {
		size = 8
	}
	return &Decoder{r: r, buf: make([]byte, size)}
}

// Buffered reports how many bytes have been read from the stream but not
// yet returned by Next — non-zero means more frames (or a partial frame)
// are already in memory, which is what a server uses to decide whether the
// connection has gone quiet.
//
//wf:waitfree
func (d *Decoder) Buffered() int { return d.end - d.start }

// Next returns the payload of the next frame. The returned slice aliases
// the Decoder's buffer and is valid only until the following Next call;
// callers that keep a payload must copy it.
//
// Errors mirror ReadFrame: io.EOF only for a clean end of stream at a
// frame boundary, io.ErrUnexpectedEOF for a stream cut mid-frame, and
// ErrFrameTooBig for a length prefix above MaxFrame (refused before any
// allocation).
//
//wf:blocking refills from the underlying stream when the buffer runs dry
func (d *Decoder) Next() ([]byte, error) {
	for {
		if d.end-d.start >= 4 {
			n := binary.BigEndian.Uint32(d.buf[d.start:])
			if n > MaxFrame {
				return nil, ErrFrameTooBig
			}
			total := 4 + int(n)
			if d.end-d.start >= total {
				p := d.buf[d.start+4 : d.start+total : d.start+total]
				d.start += total
				return p, nil
			}
			if total > len(d.buf) {
				// The frame outgrows the buffer: reallocate exactly once,
				// bounded by MaxFrame via the prefix check above.
				grown := make([]byte, total)
				d.end = copy(grown, d.buf[d.start:d.end])
				d.start = 0
				d.buf = grown
			}
		}
		if d.start == d.end {
			// Empty: reset so the whole buffer is refill space.
			d.start, d.end = 0, 0
		} else if d.end == len(d.buf) {
			// Full with a partial frame at the tail: slide it down.
			d.end = copy(d.buf, d.buf[d.start:d.end])
			d.start = 0
		}
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if n == 0 && err != nil {
			if err == io.EOF {
				if d.start == d.end {
					return nil, io.EOF
				}
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// AppendResponseFrame appends a complete MsgResp frame — length prefix and
// payload — to b. A writer appends many of these into one buffer and
// flushes them with a single write syscall (the coalesced-ack path).
//
//wf:waitfree
func AppendResponseFrame(b []byte, id uint64, value int64) []byte {
	b = binary.BigEndian.AppendUint32(b, 17) // 1 type + 8 id + 8 value
	return AppendResponse(b, id, value)
}

// AppendRequestFrame appends a complete MsgOp frame to b: a length prefix,
// then the request payload, then the prefix patched to the payload's
// length. A client appends many of these into one buffer, where WriteFrame
// would cost a second write and an escaping header per request.
//
//wf:waitfree
func AppendRequestFrame(b []byte, id uint64, op seqspec.Op) []byte {
	at := len(b)
	b = AppendRequest(append(b, 0, 0, 0, 0), id, op)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// AppendErrorFrame appends a complete MsgErr frame to b; long reasons are
// truncated exactly as AppendError truncates them.
//
//wf:waitfree
func AppendErrorFrame(b []byte, id uint64, reason string) []byte {
	if len(reason) > 1<<10 {
		reason = reason[:1<<10]
	}
	b = binary.BigEndian.AppendUint32(b, uint32(11+len(reason))) // 1 type + 8 id + 2 len
	return AppendError(b, id, reason)
}

// bufPool recycles encode scratch buffers across connections and requests;
// see GetBuf. Pointers-to-slices, the standard trick so Put does not
// allocate a box for the header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf hands out a pooled scratch buffer (length 0, non-trivial
// capacity). Pair with PutBuf; between the two, the encode path allocates
// nothing in steady state.
//
//wf:blocking sync.Pool's miss path can take runtime-internal locks
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a scratch buffer to the pool. Buffers that grew past
// MaxFrame are dropped instead, so one oversized burst cannot pin a
// gigabyte in the pool forever.
//
//wf:blocking sync.Pool's miss path can take runtime-internal locks
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > MaxFrame {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
