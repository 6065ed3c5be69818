package cloudstore

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"efdedup/internal/chunk"
	"efdedup/internal/faultnet"
	"efdedup/internal/transport"
	"efdedup/internal/workload"
)

// benchRestoreLatency shapes the edge-to-cloud link: every client-side
// frame write pays this one-way delay, so round-trip count — the thing
// containers amortize — shows up in throughput instead of vanishing on
// a free in-memory network.
const benchRestoreLatency = 200 * time.Microsecond

// benchRestoreSetup stands up a memory-mode cloud store behind a
// latency-shaped link, uploads the VM image backup workload (8 nodes x
// 3 backups, heavy cross-node sharing) and seals containers, returning
// the client, the latest-backup manifest names and the total byte size
// one restore pass streams.
func benchRestoreSetup(b *testing.B) (*Client, []string, int64) {
	b.Helper()
	mem := transport.NewMemNetwork()
	fab := faultnet.NewFabric(faultnet.Config{Seed: 1, Latency: benchRestoreLatency})
	b.Cleanup(fab.Close)
	srv, err := NewServer(Config{ContainerBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	l, err := fab.NetworkFor("cloud", mem).Listen("cloud")
	if err != nil {
		b.Fatal(err)
	}
	srv.Serve(l)
	b.Cleanup(func() { srv.Close() })
	cl, err := Dial(context.Background(), fab.NetworkFor("edge", mem), "cloud")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })

	ds := workload.DefaultVMImageDataset(42)
	chunker, err := chunk.NewFixedChunker(ds.BlockSize)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const backups = 3
	var names []string
	var total int64
	for node := 0; node < ds.Nodes; node++ {
		for idx := 0; idx < backups; idx++ {
			data := ds.File(node, idx)
			chunks, err := chunk.SplitBytes(chunker, data)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]chunk.ID, len(chunks))
			for i, c := range chunks {
				ids[i] = c.ID
			}
			if _, err := cl.BatchUpload(ctx, chunks); err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("node%d/backup%d", node, idx)
			if err := cl.PutManifest(ctx, name, ids); err != nil {
				b.Fatal(err)
			}
			if idx == backups-1 {
				names = append(names, name)
				total += int64(len(data))
			}
		}
	}
	srv.FlushContainers()
	return cl, names, total
}

// BenchmarkCloudRestore streams the latest backup of every node through
// the container restore pipeline (getrecipe + batched getcontainer with
// read-ahead), the path efdedup-restore uses.
func BenchmarkCloudRestore(b *testing.B) {
	cl, names, total := benchRestoreSetup(b)
	ctx := context.Background()
	b.SetBytes(total)
	b.ResetTimer()
	var containers int64
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			st, err := cl.RestoreTo(ctx, name, io.Discard, RestoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			containers += int64(st.ContainersTouched)
		}
	}
	b.ReportMetric(float64(containers)/float64(b.N*len(names)), "containers/stream")
}

// BenchmarkCloudRestoreSerial is the pre-container baseline: fetch the
// manifest, then one cloud.getchunks round trip per chunk (one ID per
// call), in order.
func BenchmarkCloudRestoreSerial(b *testing.B) {
	cl, names, total := benchRestoreSetup(b)
	ctx := context.Background()
	b.SetBytes(total)
	b.ResetTimer()
	one := make([]chunk.ID, 1)
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			ids, err := cl.GetManifest(ctx, name)
			if err != nil {
				b.Fatal(err)
			}
			for _, id := range ids {
				one[0] = id
				data, err := cl.GetChunks(ctx, one)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Discard.Write(data[0]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
