package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"efdedup/internal/metrics"
	"efdedup/internal/transport"
)

// addNode spins one extra storage node on the network.
func addNode(t *testing.T, nw *transport.MemNetwork, addr string) *Node {
	t.Helper()
	node, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	node.Serve(l)
	t.Cleanup(func() { node.Close() })
	return node
}

func TestAddMemberValidation(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 2)
	c := testCluster(t, nw, ClusterConfig{Members: addrs})
	if err := c.AddMember(""); err == nil {
		t.Error("empty address accepted")
	}
	if err := c.AddMember(addrs[0]); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestRemoveMemberValidation(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 1)
	c := testCluster(t, nw, ClusterConfig{Members: addrs})
	if err := c.RemoveMember("missing"); err == nil {
		t.Error("unknown member accepted")
	}
	if err := c.RemoveMember(addrs[0]); err == nil {
		t.Error("removing last member accepted")
	}
}

// putKeys writes n keys named by format through one BatchPut and
// returns them.
func putKeys(t *testing.T, c *Cluster, format string, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf(format, i))
		values[i] = []byte("v")
	}
	if err := c.BatchPut(context.Background(), keys, values); err != nil {
		t.Fatal(err)
	}
	return keys
}

// assertAllFound fails unless BatchHas finds every key.
func assertAllFound(t *testing.T, c *Cluster, keys [][]byte, when string) {
	t.Helper()
	found, err := c.BatchHas(context.Background(), keys)
	if err != nil {
		t.Fatalf("BatchHas %s: %v", when, err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("key %s lost %s", keys[i], when)
		}
	}
}

// TestAddMemberAndRebalance grows the ring and verifies the new node ends
// up holding its share of the keys.
func TestAddMemberAndRebalance(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{
		Members: addrs, ReplicationFactor: 2, WriteConsistency: All,
	})
	ctx := context.Background()
	const keys = 200
	written := putKeys(t, c, "key-%03d", keys)

	newNode := addNode(t, nw, "kv-new")
	if err := c.AddMember("kv-new"); err != nil {
		t.Fatal(err)
	}
	if len(c.Members()) != 4 {
		t.Fatalf("members = %v", c.Members())
	}
	// No key is lost before any data movement: the old replicas still
	// hold every one.
	held := make(map[string]bool)
	for _, addr := range addrs {
		for k := range scanMember(t, c, addr) {
			held[k] = true
		}
	}
	for i := 0; i < keys; i += 20 {
		if !held[string(written[i])] {
			t.Fatalf("key %s unreadable during membership change", written[i])
		}
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	// With RF=2 over 4 nodes, the new node should own ≈ keys/2 entries.
	if got := newNode.Len(); got < keys/5 {
		t.Errorf("new node holds %d keys after rebalance, want a meaningful share", got)
	}
	// All keys still readable.
	assertAllFound(t, c, written, "after rebalance")
}

// TestRemoveMemberAndRebalance decommissions a node and verifies
// replication is restored on the survivors.
func TestRemoveMemberAndRebalance(t *testing.T) {
	nw := transport.NewMemNetwork()
	n := 4
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("kv-%d", i)
		nodes[i] = addNode(t, nw, addr)
		addrs[i] = addr
	}
	c := testCluster(t, nw, ClusterConfig{
		Members: addrs, ReplicationFactor: 2, WriteConsistency: All,
	})
	ctx := context.Background()
	written := putKeys(t, c, "key-%03d", 200)
	// Decommission node 2: remove from ring, rebalance, then kill it.
	if err := c.RemoveMember(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	nodes[2].Close()
	assertAllFound(t, c, written, "after decommission")
}

func TestRebalanceIdempotent(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs := testRing(t, nw, 3)
	c := testCluster(t, nw, ClusterConfig{Members: addrs, ReplicationFactor: 2})
	ctx := context.Background()
	putKeys(t, c, "k%d", 50)
	entries := func() map[string]int {
		out := make(map[string]int, len(addrs))
		for _, addr := range addrs {
			out[addr] = len(scanMember(t, c, addr))
		}
		return out
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	stats1 := entries()
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	stats2 := entries()
	for addr := range stats1 {
		if stats1[addr] != stats2[addr] {
			t.Errorf("%s entry count changed on idempotent rebalance: %d -> %d",
				addr, stats1[addr], stats2[addr])
		}
	}
}

// rpcCounts reads how many calls per kv method a coordinator's registry
// recorded in kvstore_client_rpc_seconds.
func rpcCounts(reg *metrics.Registry) map[string]int64 {
	out := make(map[string]int64, len(clientMethods))
	for _, m := range clientMethods {
		out[m] = reg.DurationHistogram("kvstore_client_rpc_seconds", "method", m).Snapshot().Count
	}
	return out
}

// TestRebalanceKeepsVersionsAndBatchesWrites: Rebalance re-replicates
// each key's newest scanned entry at that entry's own version — so a
// later write from any coordinator still wins — and sends its writes as
// at most one kv.batchput per member instead of one RPC per key.
func TestRebalanceKeepsVersionsAndBatchesWrites(t *testing.T) {
	nw := transport.NewMemNetwork()
	addrs, nodes := repairRing(t, nw, 3)
	byAddr := map[string]*Node{}
	for i, a := range addrs {
		byAddr[a] = nodes[i]
	}
	reg := metrics.NewRegistry()
	c := testCluster(t, nw, ClusterConfig{
		Members: addrs, ReplicationFactor: 2, WriteConsistency: All, Metrics: reg,
	})
	ctx := context.Background()
	written := putKeys(t, c, "key-%03d", 120)
	// Overwrite a third of the keys, then leave one replica of key-000
	// holding a stale version: Rebalance must spread the newest entry,
	// not whichever replica it scanned first.
	for i := 0; i < len(written); i += 3 {
		if err := put(ctx, c, written[i], []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	stale := written[0]
	behind := byAddr[c.replicas(stale)[0]]
	behind.mu.Lock()
	behind.table[string(stale)] = Entry{Value: []byte("stale"), Version: 1}
	behind.mu.Unlock()
	before := make(map[string]Entry, len(written))
	for _, k := range written {
		e, ok := readKey(t, c, k)
		if !ok {
			t.Fatalf("key %s missing before rebalance", k)
		}
		before[string(k)] = e
	}

	byAddr["kv-new"] = addNode(t, nw, "kv-new")
	if err := c.AddMember("kv-new"); err != nil {
		t.Fatal(err)
	}
	calls0 := rpcCounts(reg)
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	calls1 := rpcCounts(reg)
	members := int64(len(c.Members()))
	batchPuts := calls1[methodBatchPut] - calls0[methodBatchPut]
	if batchPuts < 1 || batchPuts > members {
		t.Fatalf("rebalance sent %d kv.batchput calls, want between 1 and %d (one per member)", batchPuts, members)
	}
	for m, n := range calls1 {
		if d := n - calls0[m]; d != 0 && m != methodBatchPut && m != methodScan {
			t.Fatalf("rebalance sent %d %s calls; its writes must ride kv.batchput", d, m)
		}
	}

	// Every replica in the new placement holds each key's pre-rebalance
	// newest entry, version unchanged.
	for _, k := range written {
		want := before[string(k)]
		for _, addr := range c.replicas(k) {
			got, ok := byAddr[addr].localGet(k)
			if !ok || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("%s holds %s as %q@%d (present %v), want %q@%d",
					addr, k, got.Value, got.Version, ok, want.Value, want.Version)
			}
		}
	}
	// Last-write-wins still holds after churn: a fresh coordinator's write
	// beats the rebalanced entry on every replica.
	c2 := testCluster(t, nw, ClusterConfig{Members: c.Members(), ReplicationFactor: 2, WriteConsistency: All})
	if err := put(ctx, c2, stale, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	for _, addr := range c.replicas(stale) {
		if got, _ := byAddr[addr].localGet(stale); string(got.Value) != "v3" {
			t.Fatalf("%s holds %q after a post-rebalance write, want v3", addr, got.Value)
		}
	}
}
