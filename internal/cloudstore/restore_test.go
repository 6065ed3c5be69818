package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"efdedup/internal/chunk"
)

// uploadStream pushes a chunked stream and its manifest, returning the
// raw bytes for identity checks.
func uploadStream(t *testing.T, cl *Client, name string, seed int64, size int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
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
	ctx := context.Background()
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, name, ids); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRestoreToStreamsFromContainers(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 64 << 10})
	data := uploadStream(t, cl, "vm", 7, 500_000)
	srv.FlushContainers()

	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "vm", &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored stream differs")
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(data))
	}
	if st.Chunks != (len(data)+4095)/4096 {
		t.Fatalf("stats.Chunks = %d", st.Chunks)
	}
	// 500 KB over 64 KiB containers: the stream must span several, and
	// every one is fetched exactly once (sequential stream, no re-reads).
	if st.ContainersTouched < 7 {
		t.Fatalf("ContainersTouched = %d, want >= 7", st.ContainersTouched)
	}
	if st.CacheMisses != int64(st.ContainersTouched) {
		t.Fatalf("CacheMisses = %d, want %d (one fetch per container)", st.CacheMisses, st.ContainersTouched)
	}
	if st.FallbackChunks != 0 {
		t.Fatalf("FallbackChunks = %d, want 0", st.FallbackChunks)
	}
}

func TestRestoreFallbackWithoutContainers(t *testing.T) {
	// No flush: every chunk is still staged, the recipe carries no
	// locators, and the whole restore rides the batched fallback.
	cl, _ := startCloud(t, Config{})
	data := uploadStream(t, cl, "unsealed", 11, 100_000)

	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "unsealed", &buf, RestoreOptions{FallbackBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("fallback restore differs")
	}
	if st.FallbackChunks != st.Chunks {
		t.Fatalf("FallbackChunks = %d, want %d (all chunks)", st.FallbackChunks, st.Chunks)
	}
	if st.ContainersTouched != 0 || st.CacheMisses != 0 {
		t.Fatalf("unexpected container traffic: %+v", st)
	}
}

// TestRestoreIdenticalAcrossPipelineShapes is the ordering property: any
// read-ahead depth and cache size must produce byte-identical output.
func TestRestoreIdenticalAcrossPipelineShapes(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	data := uploadStream(t, cl, "shapes", 13, 300_000)
	srv.FlushContainers()

	for _, ra := range []int{1, 2, 7} {
		for _, cap := range []int{1, 3} {
			var buf bytes.Buffer
			opts := RestoreOptions{ReadAhead: ra, CacheContainers: cap}
			if _, err := cl.RestoreTo(context.Background(), "shapes", &buf, opts); err != nil {
				t.Fatalf("ReadAhead=%d cap=%d: %v", ra, cap, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("ReadAhead=%d cap=%d: output differs", ra, cap)
			}
		}
	}
}

// TestRestoreCacheEvictionAndHits restores a manifest that revisits a
// container after eviction (cache of 1) and after a hit (cache of 2),
// checking the LRU accounting both ways.
func TestRestoreCacheEvictionAndHits(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	ctx := context.Background()

	// Two distinct 16 KiB containers A and B, then a manifest ordered
	// A-chunks, B-chunks, A-chunks again.
	var aIDs, bIDs []chunk.ID
	var aData, bData [][]byte
	for i := 0; i < 4; i++ {
		id, d := mkPayload(int64(500+i), 4096)
		aIDs, aData = append(aIDs, id), append(aData, d)
		id, d = mkPayload(int64(600+i), 4096)
		bIDs, bData = append(bIDs, id), append(bData, d)
	}
	var chunks []chunk.Chunk
	for i := range aIDs {
		chunks = append(chunks, chunk.Chunk{ID: aIDs[i], Data: aData[i]})
	}
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	chunks = chunks[:0]
	for i := range bIDs {
		chunks = append(chunks, chunk.Chunk{ID: bIDs[i], Data: bData[i]})
	}
	if _, err := cl.BatchUpload(ctx, chunks); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	manifest := append(append(append([]chunk.ID(nil), aIDs...), bIDs...), aIDs...)
	if err := cl.PutManifest(ctx, "aba", manifest); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, d := range aData {
		want = append(want, d...)
	}
	for _, d := range bData {
		want = append(want, d...)
	}
	for _, d := range aData {
		want = append(want, d...)
	}

	// Cache of 1, serial fetches: B evicts A, so the second A run is a
	// third miss.
	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "aba", &buf, RestoreOptions{ReadAhead: 1, CacheContainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("A-B-A restore differs (cache 1)")
	}
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("cache=1: misses=%d hits=%d, want 3/0", st.CacheMisses, st.CacheHits)
	}

	// Cache of 2: A survives B, the second A run hits.
	buf.Reset()
	st, err = cl.RestoreTo(ctx, "aba", &buf, RestoreOptions{ReadAhead: 1, CacheContainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("A-B-A restore differs (cache 2)")
	}
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Fatalf("cache=2: misses=%d hits=%d, want 2/1", st.CacheMisses, st.CacheHits)
	}
	if st.ContainersTouched != 2 {
		t.Fatalf("ContainersTouched = %d, want 2 distinct", st.ContainersTouched)
	}
}

func TestRestoreMissingManifest(t *testing.T) {
	cl, _ := startCloud(t, Config{})
	if _, err := cl.RestoreTo(context.Background(), "ghost", &bytes.Buffer{}, RestoreOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore of missing manifest = %v, want ErrNotFound", err)
	}
}

// failAfterWriter fails the restore's output sink mid-stream, proving
// the pipeline tears down cleanly (no goroutine leak, error surfaced).
type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, fmt.Errorf("sink full")
	}
	return len(p), nil
}

func TestRestoreWriterFailureTearsDown(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	uploadStream(t, cl, "teardown", 17, 200_000)
	srv.FlushContainers()

	_, err := cl.RestoreTo(context.Background(), "teardown", &failAfterWriter{n: 50_000}, RestoreOptions{ReadAhead: 4})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sink full")) {
		t.Fatalf("err = %v, want wrapped sink failure", err)
	}
}

// TestRestoreMemoryBoundedByCache restores a stream much larger than the
// cache through a window-counting writer: at no point may the pipeline
// hold more container payloads than cache capacity + in-flight fetches
// allow. We assert the observable proxy — the restore succeeds with a
// 2-container cache on a 30-container stream while every container is
// fetched at most once (sequential access never refetches).
func TestRestoreMemoryBoundedByCache(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 16 << 10})
	data := uploadStream(t, cl, "big", 19, 500_000)
	srv.FlushContainers()

	var buf bytes.Buffer
	st, err := cl.RestoreTo(context.Background(), "big", &buf, RestoreOptions{ReadAhead: 2, CacheContainers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored stream differs")
	}
	if st.ContainersTouched < 25 {
		t.Fatalf("ContainersTouched = %d, want a stream much larger than the cache", st.ContainersTouched)
	}
	if st.CacheMisses != int64(st.ContainersTouched) {
		t.Fatalf("CacheMisses = %d, want %d (each container fetched once)", st.CacheMisses, st.ContainersTouched)
	}
}

// TestRestoreLegacyWrapperMatches keeps the old []byte Restore API
// equivalent to the streaming path.
func TestRestoreLegacyWrapperMatches(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 32 << 10})
	data := uploadStream(t, cl, "legacy", 23, 150_000)
	srv.FlushContainers()

	got, err := cl.Restore(context.Background(), "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("legacy Restore differs")
	}
}

// interleavedRestore seals two containers A and B of eight 1000-byte
// chunks each and stores a manifest that interleaves non-contiguous
// records of both (with one repeat), returning the manifest's expected
// bytes and the indexes of the A and B chunks it uses.
func interleavedRestore(t *testing.T, cl *Client, srv *Server) (want []byte, usedA, usedB []int, a, b []chunk.Chunk) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		_, d := mkPayload(int64(800+i), 1000)
		a = append(a, chunk.Chunk{ID: chunk.Sum(d), Data: d})
		_, d = mkPayload(int64(900+i), 1000)
		b = append(b, chunk.Chunk{ID: chunk.Sum(d), Data: d})
	}
	for _, cs := range [][]chunk.Chunk{a, b} {
		if _, err := cl.BatchUpload(ctx, cs); err != nil {
			t.Fatal(err)
		}
		srv.FlushContainers()
	}
	order := []chunk.Chunk{a[1], b[6], a[3], b[0], a[6], b[2], a[1], b[4]}
	usedA, usedB = []int{1, 3, 6}, []int{0, 2, 4, 6}
	ids := make([]chunk.ID, len(order))
	for i, c := range order {
		ids[i] = c.ID
		want = append(want, c.Data...)
	}
	if err := cl.PutManifest(ctx, "interleaved", ids); err != nil {
		t.Fatal(err)
	}
	return want, usedA, usedB, a, b
}

// TestRestoreRangeReadsInterleavedContainers: a recipe alternating
// between scattered records of two containers restores byte-identically
// with one getcontainer RPC per container, and each reply is exactly the
// needed records' bytes — header, CRC and payload — and nothing else.
func TestRestoreRangeReadsInterleavedContainers(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 1 << 20})
	ctx := context.Background()
	want, usedA, usedB, a, b := interleavedRestore(t, cl, srv)

	var buf bytes.Buffer
	st, err := cl.RestoreTo(ctx, "interleaved", &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("interleaved restore differs")
	}
	if st.ContainersTouched != 2 || st.CacheMisses != int64(st.ContainersTouched) {
		t.Fatalf("ContainersTouched = %d, CacheMisses = %d, want 2 and 2", st.ContainersTouched, st.CacheMisses)
	}

	recipe, err := cl.GetRecipe(ctx, "interleaved")
	if err != nil {
		t.Fatal(err)
	}
	spans := planSpans(recipe)
	for _, side := range []struct {
		chunks []chunk.Chunk
		used   []int
	}{{a, usedA}, {b, usedB}} {
		loc0, _ := srv.containers.locate(side.chunks[0].ID)
		sealed := srv.containers.sealed[loc0.Container]
		var records []byte
		for _, i := range side.used {
			l, _ := srv.containers.locate(side.chunks[i].ID)
			records = append(records, sealed[l.Offset-containerRecordHeader:l.Offset+l.Length]...)
		}
		if n := len(spans[loc0.Container]); n != len(side.used) {
			t.Fatalf("container %d: %d planned spans, want one per scattered record (%d)", loc0.Container, n, len(side.used))
		}
		reply, err := cl.getContainer(ctx, loc0.Container, spans[loc0.Container])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, records) {
			t.Fatalf("container %d: reply of %d bytes, want the %d bytes of records %v", loc0.Container, len(reply), len(records), side.used)
		}
	}
}

// TestRestoreRangeReadCorruption flips one payload byte in a record the
// stream does not read (the restore stays intact), then in one it does
// (the restore fails with ErrCorrupt naming the container).
func TestRestoreRangeReadCorruption(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 1 << 20})
	ctx := context.Background()
	want, _, _, a, _ := interleavedRestore(t, cl, srv)

	flip := func(c chunk.Chunk) {
		l, _ := srv.containers.locate(c.ID)
		srv.containers.sealed[l.Container][l.Offset+l.Length/2] ^= 0xFF
	}
	flip(a[2]) // unread neighbour of the needed a[1] and a[3]
	got, err := cl.Restore(ctx, "interleaved")
	if err != nil {
		t.Fatalf("restore with an unread record damaged: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restore with an unread record damaged differs")
	}

	flip(a[3])
	_, err = cl.Restore(ctx, "interleaved")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore over a damaged needed record = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "container 1") {
		t.Fatalf("error does not name the container: %v", err)
	}
}

// TestRestoreRangeReadsAfterReopen range-reads Dir-mode containers
// served by a fresh server over the same directory: a full stream and a
// manifest of every third chunk (one span per record) both restore.
func TestRestoreRangeReadsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ContainerBytes: 16 << 10}
	cl, srv := startCloud(t, cfg)
	data := uploadStream(t, cl, "vm", 29, 200_000)
	ctx := context.Background()
	ids, err := cl.GetManifest(ctx, "vm")
	if err != nil {
		t.Fatal(err)
	}
	var sparse []chunk.ID
	var sparseWant []byte
	for i := 0; i < len(ids); i += 3 {
		sparse = append(sparse, ids[i])
		sparseWant = append(sparseWant, data[i*4096:min(len(data), (i+1)*4096)]...)
	}
	if err := cl.PutManifest(ctx, "sparse", sparse); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cl2, _ := startCloud(t, cfg)
	for name, want := range map[string][]byte{"vm": data, "sparse": sparseWant} {
		var buf bytes.Buffer
		st, err := cl2.RestoreTo(ctx, name, &buf, RestoreOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: restore after reopen differs", name)
		}
		if st.FallbackChunks != 0 || st.ContainersTouched == 0 || st.CacheMisses != int64(st.ContainersTouched) {
			t.Fatalf("%s: stats %+v, want every chunk from one read per container", name, st)
		}
	}
}

// TestPlanSpansMergesOnlyTouching: record spans merge when they touch,
// repeat or overlap, never across a gap, and group by container.
func TestPlanSpansMergesOnlyTouching(t *testing.T) {
	const h = containerRecordHeader
	var recipe []RecipeEntry
	for _, l := range []Locator{
		{Container: 2, Offset: 500 + h, Length: 50},
		{}, // fallback entry: no span
		{Container: 1, Offset: 148 + h, Length: 100}, // touches the record at 8
		{Container: 1, Offset: 8 + h, Length: 100},
		{Container: 1, Offset: 8 + h, Length: 100},  // repeat
		{Container: 1, Offset: 289 + h, Length: 10}, // one-byte gap
		{Container: 2, Offset: 520 + h, Length: 60}, // overlaps
	} {
		recipe = append(recipe, RecipeEntry{Loc: l})
	}
	got := planSpans(recipe)
	want := map[uint64][]Locator{
		1: {{Container: 1, Offset: 8, Length: 280}, {Container: 1, Offset: 289, Length: 10 + h}},
		2: {{Container: 2, Offset: 500, Length: 120}},
	}
	if len(got) != len(want) {
		t.Fatalf("planSpans = %v, want %v", got, want)
	}
	for c, w := range want {
		if !slices.Equal(got[c], w) {
			t.Fatalf("container %d spans = %v, want %v", c, got[c], w)
		}
	}
}
