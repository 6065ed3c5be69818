package agent

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"efdedup/internal/chunk"
	"efdedup/internal/kvstore"
)

// TestRegisterFreshOwnerValues pins the registerFresh batching contract:
// every index entry carries the full owner name even though all values in
// one BatchPut share a single backing []byte (the per-chunk conversion
// was hoisted out of the loop). A store that retained and mutated values
// would corrupt every entry at once — this test would catch that. The
// ring nodes are WAL-backed, so the owner values are read back from what
// each replica logged.
func TestRegisterFreshOwnerValues(t *testing.T) {
	tb := newTestbed(t, 0)
	dir := t.TempDir()
	var nodes []*kvstore.Node
	var wals []string
	for i := 0; i < 2; i++ {
		wal := filepath.Join(dir, fmt.Sprintf("kv-%d.wal", i))
		node, err := kvstore.NewNode(kvstore.NodeConfig{WALPath: wal, WALSync: kvstore.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := tb.nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		node.Serve(l)
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		wals = append(wals, wal)
		tb.kvAddrs = append(tb.kvAddrs, addr)
	}
	idx := tb.ringIndex(t, 0)
	a, err := New(Config{
		Name:  "owner-agent",
		Mode:  ModeRing,
		Index: idx,
		Cloud: tb.cloudClient(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	data := duplicatedData(41, 64*1024)
	ctx := context.Background()
	if _, err := a.ProcessBytes(ctx, "owned", data); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
	}
	owners := make(map[string]string)
	for _, wal := range wals {
		if _, err := kvstore.ReplayWAL(wal, func(key []byte, e kvstore.Entry) {
			// A wrong owner on either replica sticks.
			if prev, ok := owners[string(key)]; !ok || prev == "owner-agent" {
				owners[string(key)] = string(e.Value)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Recompute the chunk set with the agent's default chunker and look
	// every ID up in what the ring logged.
	fc, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunk.SplitBytes(fc, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("need at least 2 chunks to exercise value sharing, got %d", len(chunks))
	}
	for _, c := range chunks {
		id := c.ID
		owner, ok := owners[string(id[:])]
		if !ok {
			t.Fatalf("index missing chunk %s", c.ID)
		}
		if owner != "owner-agent" {
			t.Fatalf("chunk %s owner = %q, want %q", c.ID, owner, "owner-agent")
		}
	}
}
