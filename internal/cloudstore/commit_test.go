package cloudstore

// Tests for the manifest commit (cloud.putmanifest): the stream's final
// upload batch rides the manifest, and the cloud publishes a manifest
// only over chunks it stores.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"efdedup/internal/chunk"
)

// splitStream cuts size seeded random bytes into 4 KiB chunks.
func splitStream(t *testing.T, seed int64, size int) ([]byte, []chunk.Chunk, []chunk.ID) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	chunker, err := chunk.NewFixedChunker(4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunk.SplitBytes(chunker, data)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]chunk.ID, len(chunks))
	for i, c := range chunks {
		ids[i] = c.ID
	}
	return data, chunks, ids
}

func TestCommitCorruptTailPublishesNoManifest(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()
	good, bad := mkChunk("good tail chunk"), mkChunk("tail chunk")
	bad.Data = []byte("tail chunk, altered in flight")
	err := cl.PutManifest(ctx, "corrupt", []chunk.ID{good.ID, bad.ID}, good, bad)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("commit with a corrupt tail = %v, want ErrCorrupt", err)
	}
	if _, err := cl.GetManifest(ctx, "corrupt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("manifest published over a corrupt tail: GetManifest = %v", err)
	}
	if st := srv.Stats(); st.Manifests != 0 {
		t.Fatalf("Manifests = %d after a corrupt commit, want 0", st.Manifests)
	}
}

func TestCommitRefusesAbsentChunk(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()
	stored := mkChunk("stored")
	if err := cl.PutManifest(ctx, "ok", []chunk.ID{stored.ID}, stored); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Manifests

	tail := mkChunk("tail")
	absent := chunk.Sum([]byte("never uploaded"))
	err := cl.PutManifest(ctx, "dangling", []chunk.ID{stored.ID, tail.ID, absent}, tail)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("manifest naming an absent chunk = %v, want ErrNotFound", err)
	}
	if after := srv.Stats().Manifests; after != before {
		t.Fatalf("Manifests moved %d -> %d on a refused commit", before, after)
	}
	if _, err := cl.GetManifest(ctx, "dangling"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused manifest advertised: GetManifest = %v", err)
	}
}

// TestCommitRetryIsIdempotent sends the same commit twice, as a client
// retrying after a lost response does: the second one changes nothing.
func TestCommitRetryIsIdempotent(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()
	_, chunks, ids := splitStream(t, 11, 30_000)
	if err := cl.PutManifest(ctx, "retried", ids, chunks...); err != nil {
		t.Fatal(err)
	}
	first := srv.Stats()
	if err := cl.PutManifest(ctx, "retried", ids, chunks...); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	second := srv.Stats()
	if second.UniqueChunks != first.UniqueChunks || second.UniqueBytes != first.UniqueBytes || second.Manifests != 1 {
		t.Fatalf("retry changed the store: %+v -> %+v", first, second)
	}
	got, err := cl.GetManifest(ctx, "retried")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("manifest has %d IDs after retry, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("manifest ID %d changed after retry", i)
		}
	}
}

// TestCommitSurvivesReopen commits a stream with a tail to a durable
// store, reopens the directory and restores it byte for byte.
func TestCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ContainerBytes: 16 << 10}
	data, chunks, ids := splitStream(t, 13, 50_000)
	ctx := context.Background()
	first, firstSrv := startCloud(t, cfg)
	if _, err := first.BatchUpload(ctx, chunks[:5]); err != nil {
		t.Fatal(err)
	}
	if err := first.PutManifest(ctx, "durable", ids, chunks[5:]...); err != nil {
		t.Fatal(err)
	}
	if err := firstSrv.Close(); err != nil {
		t.Fatal(err)
	}
	cl, srv := startCloud(t, cfg)
	if st := srv.Stats(); st.UniqueChunks != int64(len(chunks)) || st.Manifests != 1 {
		t.Fatalf("reopened store: %+v, want %d chunks and 1 manifest", st, len(chunks))
	}
	got, err := cl.Restore(ctx, "durable")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore after reopen differs from the committed stream")
	}
}
