package agent

// Tests for the manifest commit: the stream's final upload batch rides
// the cloud.putmanifest RPC, which is sent only after every earlier
// batch was acknowledged.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/cloudstore"
	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

// cloudCalls reads the process-wide client RPC count for one cloud
// method (every cloud client records into the same series).
func cloudCalls(method string) int64 {
	return metrics.Default().DurationHistogram("cloud_client_rpc_seconds", "method", method).Snapshot().Count
}

func TestSingleBatchStreamIsOneCommit(t *testing.T) {
	tb := newTestbed(t, 3)
	a := ringAgent(t, tb, "single", 0)
	data := make([]byte, 20*chunk.DefaultFixedSize) // 20 fresh chunks < DefaultUploadBatch
	rand.New(rand.NewSource(5)).Read(data)

	uploads, commits := cloudCalls("cloud.batchupload"), cloudCalls("cloud.putmanifest")
	rep, err := a.ProcessBytes(context.Background(), "single", data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UploadedChunks != 20 {
		t.Fatalf("UploadedChunks = %d, want 20", rep.UploadedChunks)
	}
	if n := cloudCalls("cloud.batchupload") - uploads; n != 0 {
		t.Errorf("single-batch stream sent %d cloud.batchupload calls, want 0", n)
	}
	if n := cloudCalls("cloud.putmanifest") - commits; n != 1 {
		t.Errorf("single-batch stream sent %d cloud.putmanifest calls, want 1", n)
	}
	got, err := tb.cloudClient(t).Restore(context.Background(), "single")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore differs from the committed stream")
	}
}

// rpcTap records, in order, the cloud requests a client sends and the
// responses it receives, by parsing transport frames
// (u32 length | u8 kind | u64 id | request: u8 method length | method).
type rpcTap struct {
	mu     sync.Mutex
	method map[uint64]string
	events []rpcEvent
}

type rpcEvent struct {
	sent   bool // request written (else response read)
	method string
}

func (tp *rpcTap) frames(buf *[]byte, sent bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for len(*buf) >= 4 {
		n := int(binary.BigEndian.Uint32(*buf))
		if len(*buf) < 4+n {
			return
		}
		p := (*buf)[4 : 4+n]
		*buf = (*buf)[4+n:]
		id := binary.BigEndian.Uint64(p[1:9])
		if sent {
			tp.method[id] = string(p[10 : 10+int(p[9])])
		}
		tp.events = append(tp.events, rpcEvent{sent: sent, method: tp.method[id]})
	}
}

type tapConn struct {
	net.Conn
	tap        *rpcTap
	wbuf, rbuf []byte
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.wbuf = append(c.wbuf, b...)
	c.tap.frames(&c.wbuf, true)
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rbuf = append(c.rbuf, b[:n]...)
	c.tap.frames(&c.rbuf, false)
	return n, err
}

type tapDialer struct {
	nw  *transport.MemNetwork
	tap *rpcTap
}

func (d tapDialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := d.nw.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, tap: d.tap}, nil
}

func TestCommitFollowsEveryEarlierBatch(t *testing.T) {
	tb := newTestbed(t, 3)
	tap := &rpcTap{method: make(map[uint64]string)}
	cloud, err := cloudstore.Dial(context.Background(), tapDialer{nw: tb.nw, tap: tap}, "cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	a, err := New(Config{
		Name:        "multi",
		Mode:        ModeRing,
		Index:       tb.ringIndex(t, 0),
		Cloud:       cloud,
		LookupBatch: 4,
		UploadBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 30*chunk.DefaultFixedSize) // 7 full batches and a tail of 2
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := a.ProcessBytes(context.Background(), "multi", data); err != nil {
		t.Fatal(err)
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	acked, batches, commits := 0, 0, 0
	for _, ev := range tap.events {
		switch {
		case ev.method == "cloud.batchupload" && ev.sent:
			batches++
		case ev.method == "cloud.batchupload":
			acked++
		case ev.method == "cloud.putmanifest" && ev.sent:
			commits++
			if acked != batches {
				t.Errorf("commit sent with %d of %d earlier batches acknowledged", acked, batches)
			}
		}
	}
	if batches != 7 || commits != 1 {
		t.Fatalf("stream sent %d batch uploads and %d commits, want 7 and 1", batches, commits)
	}
	got, err := tb.cloudClient(t).Restore(context.Background(), "multi")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore differs from the committed stream")
	}
}

// TestChunkWriteFailureFailsStream: when the cloud cannot persist a
// chunk, the stream must fail, leave no manifest and register nothing
// in the ring index (the cloud used to acknowledge such a chunk as a
// duplicate, and the agent then indexed it).
func TestChunkWriteFailureFailsStream(t *testing.T) {
	tb := newTestbed(t, 3)
	dir := t.TempDir()
	srv, err := cloudstore.NewServer(cloudstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := tb.nw.Listen("durable-cloud")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	// A file where the staged-chunk directory belongs fails every write.
	cdir := filepath.Join(dir, "chunks")
	if err := os.RemoveAll(cdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cdir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cloud, err := cloudstore.Dial(context.Background(), tb.nw, "durable-cloud")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	idx := tb.ringIndex(t, 0)
	a, err := New(Config{Name: "broken-disk", Mode: ModeRing, Index: idx, Cloud: cloud, UploadBatch: 8})
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 20*chunk.DefaultFixedSize) // two full batches and a tail
	rand.New(rand.NewSource(17)).Read(data)
	if _, err := a.ProcessBytes(context.Background(), "doomed", data); err == nil {
		t.Fatal("stream succeeded although the cloud could not store its chunks")
	}
	if st := srv.Stats(); st.Manifests != 0 || st.UniqueChunks != 0 {
		t.Fatalf("cloud stats after the failed stream: %+v, want no manifest and no chunks", st)
	}
	chunks, err := chunk.SplitBytes(a.cfg.Chunker, data)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, len(chunks))
	for i := range chunks {
		id := chunks[i].ID
		keys[i] = id[:]
	}
	indexed, err := idx.BatchHas(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range indexed {
		if ok {
			t.Errorf("ring index names chunk %d, which the cloud never stored", i)
		}
	}
}
