package kvstore

import (
	"context"
	"fmt"
	"testing"

	"efdedup/internal/transport"
)

// benchRingCluster spins up n nodes plus a cluster with the given
// replication and write consistency.
func benchRingCluster(b *testing.B, n, rf int, write Consistency) *Cluster {
	b.Helper()
	nw := transport.NewMemNetwork()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{})
		if err != nil {
			b.Fatal(err)
		}
		addr := fmt.Sprintf("kv-%d", i)
		l, err := nw.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		node.Serve(l)
		b.Cleanup(func() { node.Close() })
		addrs[i] = addr
	}
	c, err := NewCluster(ClusterConfig{
		Members:           addrs,
		ReplicationFactor: rf,
		WriteConsistency:  write,
		LocalAddr:         addrs[0],
		Network:           nw,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("chunk-hash-%06d", i))
	}
	return keys
}

func BenchmarkBatchHas(b *testing.B) {
	c := benchRingCluster(b, 4, 2, One)
	ctx := context.Background()
	keys := benchKeys(64)
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = []byte("v")
	}
	if err := c.BatchPut(ctx, keys, values); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BatchHas(ctx, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchPut(b *testing.B) {
	c := benchRingCluster(b, 4, 2, One)
	ctx := context.Background()
	keys := benchKeys(64)
	values := make([][]byte, len(keys))
	for i := range values {
		values[i] = []byte("v")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.BatchPut(ctx, keys, values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationFactorAblation sweeps γ — the paper's V(P) term
// depends on 1-γ/|P|, and higher γ also multiplies write fan-out.
func BenchmarkReplicationFactorAblation(b *testing.B) {
	for _, rf := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) {
			c := benchRingCluster(b, 4, rf, One)
			ctx := context.Background()
			keys := benchKeys(32)
			values := make([][]byte, len(keys))
			for i := range values {
				values[i] = []byte("v")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.BatchPut(ctx, keys, values); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			local, remote := c.LookupStats()
			_ = local
			_ = remote
		})
	}
}
