package main

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
)

// The transport frame layout, as pinned in lint/wire.lock: a u32
// big-endian payload length, then the payload. A request payload starts
// u8 type=1, u64 id, u8 method length, method; a response payload starts
// u8 type=2, u64 id, u8 status (0 ok, 1 error).
const (
	frameRequest  = 1
	frameResponse = 2
	framePrefix   = 10 // type + id + method length or status
)

// frameInfo is what the wrappers learn about one complete frame.
type frameInfo struct {
	kind   byte
	id     uint64
	method string // requests only
	status byte   // responses only
	size   int64  // wire bytes, length prefix included
	start  int64  // tracer time of the I/O call that carried its first byte
	end    int64  // tracer time of the I/O call that carried its last byte
}

// frameParser decodes frame headers incrementally from a byte stream cut
// at arbitrary points, keeping only the payload prefix it needs.
type frameParser struct {
	hdr   [4]byte
	hn    int
	total int64 // payload length of the current frame
	got   int64 // payload bytes consumed
	pre   []byte
	want  int // payload prefix bytes to keep
	start int64
}

// feed consumes b, carried by an I/O call spanning tracer times
// [start, end], and reports every frame it completes.
func (p *frameParser) feed(b []byte, start, end int64, done func(frameInfo)) {
	for len(b) > 0 {
		if p.hn < 4 {
			if p.hn == 0 {
				p.start = start
			}
			n := copy(p.hdr[p.hn:], b)
			p.hn += n
			b = b[n:]
			if p.hn == 4 {
				p.total = int64(binary.BigEndian.Uint32(p.hdr[:]))
				p.got = 0
				p.pre = p.pre[:0]
				p.want = int(min(p.total, framePrefix))
				if p.total == 0 {
					p.finish(end, done)
				}
			}
			continue
		}
		if len(p.pre) < p.want {
			k := min(len(b), p.want-len(p.pre))
			p.pre = append(p.pre, b[:k]...)
			p.got += int64(k)
			b = b[k:]
			if len(p.pre) == framePrefix && p.pre[0] == frameRequest {
				p.want = int(min(p.total, int64(framePrefix+int(p.pre[9]))))
			}
		} else {
			n := min(int64(len(b)), p.total-p.got)
			p.got += n
			b = b[n:]
		}
		if p.got == p.total {
			p.finish(end, done)
		}
	}
}

func (p *frameParser) finish(end int64, done func(frameInfo)) {
	f := frameInfo{size: 4 + p.total, start: p.start, end: end}
	if len(p.pre) >= framePrefix {
		f.kind = p.pre[0]
		f.id = binary.BigEndian.Uint64(p.pre[1:9])
		switch f.kind {
		case frameRequest:
			f.method = string(p.pre[framePrefix:])
		case frameResponse:
			f.status = p.pre[9]
		}
	}
	p.hn = 0
	done(f)
}

// rpcName maps a wire method ("kv.batchhas") to the layer-qualified
// metric stem ("kvstore.batchhas").
func rpcName(method string) string {
	switch {
	case strings.HasPrefix(method, "kv."):
		return "kvstore." + method[3:]
	case strings.HasPrefix(method, "cloud."):
		return "cloudstore." + method[6:]
	}
	return method
}

type pendingCall struct {
	method string
	start  int64
	bytes  int64
}

// tracedConn decodes the transport frames crossing a conn and records
// one span per request/response pair, matched on the request id. On the
// dialing side a span runs from the write of the request's first byte
// to the read of the response's last byte ("<stem>.client"); on the
// accepting side from reading the whole request to starting to write
// the response ("<stem>.server"). Bytes are both frames' wire sizes.
type tracedConn struct {
	net.Conn
	tr     *Tracer
	server bool

	mu      sync.Mutex
	rd, wr  frameParser
	pending map[uint64]pendingCall
}

func newTracedConn(c net.Conn, tr *Tracer, server bool) *tracedConn {
	return &tracedConn{Conn: c, tr: tr, server: server, pending: make(map[uint64]pendingCall)}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(p)
	if n > 0 {
		t1 := c.tr.now()
		c.mu.Lock()
		c.rd.feed(p[:n], t0, t1, c.frame)
		c.mu.Unlock()
	}
	return n, err
}

// Write decodes p before sending it: on a synchronous conn the peer can
// answer a request before the Write carrying it returns, and the
// response must find the request already pending.
func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	c.mu.Lock()
	c.wr.feed(p, t0, t0, c.frame)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// frame handles one complete frame in either direction; c.mu is held.
func (c *tracedConn) frame(f frameInfo) {
	switch f.kind {
	case frameRequest:
		start := f.start // the client's span opens when the request is sent
		if c.server {
			start = f.end // the server's opens once the request has arrived
		}
		c.pending[f.id] = pendingCall{method: f.method, start: start, bytes: f.size}
	case frameResponse:
		call, ok := c.pending[f.id]
		if !ok {
			return
		}
		delete(c.pending, f.id)
		side := ".client"
		if c.server {
			side = ".server"
		}
		c.tr.add(Span{
			ID:    c.tr.newID(),
			Name:  rpcName(call.method) + side,
			Start: call.start,
			End:   f.end,
			Bytes: call.bytes + f.size,
			Count: 1,
			Err:   f.status != 0,
		})
	}
}

// network is the listen/dial surface every deployment is built on
// (transport.MemNetwork and netem site views both satisfy it).
type network interface {
	Listen(addr string) (net.Listener, error)
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// tracedNetwork wraps every conn dialed through or accepted from inner.
type tracedNetwork struct {
	inner network
	tr    *Tracer
}

func (n tracedNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, n.tr, false), nil
}

func (n tracedNetwork) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tracedListener{Listener: l, tr: n.tr}, nil
}

type tracedListener struct {
	net.Listener
	tr *Tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, l.tr, true), nil
}

// traced wraps inner when tracing, and returns it unchanged otherwise.
func traced(inner network, tr *Tracer) network {
	if tr == nil {
		return inner
	}
	return tracedNetwork{inner: inner, tr: tr}
}
