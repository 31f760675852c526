package server

import (
	"bufio"
	"net"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// Client is a single-connection front end to a Server. It is not safe for
// two goroutines to share a role — but the roles split: exactly one
// goroutine may Send/Flush while exactly one other Recvs, which is the
// shape a pipelined load generator wants (that is the point: one client,
// one connection on the server side).
//
// The split Send/Flush/Recv surface exists for pipelining: a sender
// queues several requests and flushes once, a receiver drains the
// responses. Responses may come back in any order — the server answers
// reads inline while earlier writes still wait on their fsync — so a
// pipelined caller must reassemble by the id Send returned and Recv
// reports. Do keeps one request in flight and needs no reassembly.
type Client struct {
	c      net.Conn
	dec    *wire.Decoder
	bw     *bufio.Writer
	nextID uint64
	wbuf   []byte
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		c:   c,
		dec: wire.NewDecoder(c),
		bw:  bufio.NewWriterSize(c, 4096),
	}, nil
}

// Send queues one request without flushing and returns its id. The
// request goes to the buffered writer as one frame, which reaches the
// socket only when the buffer fills or on Flush.
func (cl *Client) Send(op seqspec.Op) (uint64, error) {
	cl.nextID++
	id := cl.nextID
	cl.wbuf = wire.AppendRequestFrame(cl.wbuf[:0], id, op)
	_, err := cl.bw.Write(cl.wbuf)
	return id, err
}

// Flush pushes queued requests onto the socket.
func (cl *Client) Flush() error { return cl.bw.Flush() }

// Recv reads the next response — not necessarily the oldest request's;
// match by the returned id. A server-side refusal surfaces as a
// *wire.RemoteError with the id of the refused request. The streaming
// decoder drains whole coalesced ack batches from one read syscall.
//
//wf:blocking waits for the server's response frame
func (cl *Client) Recv() (uint64, int64, error) {
	payload, err := cl.dec.Next()
	if err != nil {
		return 0, 0, err
	}
	return wire.DecodeReply(payload)
}

// Do sends one request and waits for its response.
//
//wf:blocking one full round trip on the socket
func (cl *Client) Do(op seqspec.Op) (int64, error) {
	id, err := cl.Send(op)
	if err != nil {
		return 0, err
	}
	if err := cl.Flush(); err != nil {
		return 0, err
	}
	rid, v, err := cl.Recv()
	if err != nil {
		return 0, err
	}
	if rid != id {
		return 0, &wire.RemoteError{Reason: "response id mismatch"}
	}
	return v, nil
}

// Put stores v under k.
//
//wf:blocking one round trip
func (cl *Client) Put(k, v int64) (int64, error) {
	return cl.Do(seqspec.Op{Kind: "put", Args: []int64{k, v}})
}

// Get reads k (seqspec.Empty when absent).
//
//wf:blocking one round trip
func (cl *Client) Get(k int64) (int64, error) {
	return cl.Do(seqspec.Op{Kind: "get", Args: []int64{k}})
}

// Del removes k.
//
//wf:blocking one round trip
func (cl *Client) Del(k int64) (int64, error) {
	return cl.Do(seqspec.Op{Kind: "del", Args: []int64{k}})
}

// Len reads the map size. In memory it is a cross-shard sum of per-shard
// instants (see the Sharded contract); a durable server's committer reads
// every shard at one point of its order.
//
//wf:blocking one round trip
func (cl *Client) Len() (int64, error) {
	return cl.Do(seqspec.Op{Kind: "len"})
}

// Close closes the connection (an in-memory server detaches its leased pid
// and returns it to the pool).
func (cl *Client) Close() error { return cl.c.Close() }
