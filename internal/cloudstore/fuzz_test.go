package cloudstore

import (
	"errors"
	"testing"

	"efdedup/internal/chunk"
)

// FuzzHandlers throws arbitrary request bodies at every cloud-store RPC
// handler: none may panic, regardless of input.
func FuzzHandlers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add(make([]byte, 40))
	id, data := mkPayload(1, 64)
	valid := append(append([]byte{}, id[:]...), data...)
	f.Add(valid)
	// Range reads against the sealed container 1 below: past the end,
	// overlapping, and a span whose end wraps uint32.
	f.Add(encodeRangeList(1, []Locator{{Offset: 0, Length: 0xFFFFFFFF}}))
	f.Add(encodeRangeList(1, []Locator{{Offset: 8, Length: 40}, {Offset: 20, Length: 4}}))
	f.Add(encodeRangeList(1, []Locator{{Offset: 0xFFFFFFF0, Length: 0x20}}))
	// Commits: a tail that stores the seeded chunk again, an empty tail
	// over it, a manifest naming an absent chunk, and the malformed
	// bodies (hostile tail count, tail past the body, misaligned IDs).
	stored := chunk.Chunk{ID: id, Data: data}
	for _, c := range []struct {
		tail []chunk.Chunk
		ids  []chunk.ID
	}{
		{[]chunk.Chunk{stored}, []chunk.ID{id, id}},
		{nil, []chunk.ID{id}},
		{nil, []chunk.ID{chunk.Sum([]byte("absent"))}},
	} {
		if body, err := encodeCommit("seed", c.tail, c.ids); err == nil {
			f.Add(body)
		}
	}
	for _, body := range hostileCommits() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := NewServer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.storeChunk(id, data); err != nil {
			t.Fatal(err)
		}
		srv.FlushContainers()
		handlers := []func([]byte) ([]byte, error){
			srv.handleBatchUpload,
			srv.handleBatchHas,
			srv.handleUploadRaw,
			srv.handleGetChunks,
			srv.handleGetRecipe,
			srv.handleGetContainer,
			srv.handlePutManifest,
			srv.handleGetManifest,
			srv.handleStats,
		}
		for _, h := range handlers {
			_, _ = h(body) // must not panic
		}
	})
}

// FuzzCloudCodecs drives every cloud.* body decoder with arbitrary
// bytes: each must either decode or return ErrProto — never panic, and
// never size an allocation from an unvalidated wire count.
func FuzzCloudCodecs(f *testing.F) {
	ck := chunk.Chunk{ID: chunk.Sum([]byte("seed")), Data: []byte("seed")}
	f.Add([]byte{})
	f.Add(encodeChunkData([][]byte{ck.Data})) // one-ID getchunks reply
	f.Add(encodeChunkList([]chunk.Chunk{ck}))
	f.Add(encodeIDList([]chunk.ID{ck.ID}))
	if blob, err := encodeNamedBlob("name", []byte("payload")); err == nil {
		f.Add(blob)
	}
	f.Add(encodeManifestIDs([]chunk.ID{ck.ID}))
	f.Add(encodeRecipe([]RecipeEntry{{ID: ck.ID, Loc: Locator{Container: 1, Offset: 2, Length: 3}}}))
	f.Add(encodeChunkData([][]byte{[]byte("one"), []byte("two")}))
	f.Add(encodeRangeList(1, []Locator{{Offset: 8, Length: 44}, {Offset: 52, Length: 40}}))
	f.Add(encodeRecipe([]RecipeEntry{{ID: ck.ID, Loc: Locator{Container: 1, Offset: 0xFFFFFFFF, Length: 2}}}))
	f.Add(encodeStats(Stats{UniqueChunks: 1}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // hostile count prefix
	if body, err := encodeCommit("name", nil, nil); err == nil {
		f.Add(body) // empty tail, empty manifest
	}
	if body, err := encodeCommit("name", []chunk.Chunk{ck}, []chunk.ID{ck.ID}); err == nil {
		f.Add(body)
	}
	for _, body := range hostileCommits() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrProto) {
				t.Fatalf("%s returned unclassified error: %v", what, err)
			}
		}
		_, err := decodeChunkList(data)
		check("decodeChunkList", err)
		_, err = decodeIDList(data)
		check("decodeIDList", err)
		_, _, err = decodeNamedBlob(data)
		check("decodeNamedBlob", err)
		_, _, _, err = decodeCommit(data)
		check("decodeCommit", err)
		_, err = decodeManifestIDs(data)
		check("decodeManifestIDs", err)
		_, err = decodeRecipe(data)
		check("decodeRecipe", err)
		_, err = decodeChunkData(data, 3)
		check("decodeChunkData", err)
		_, _, err = decodeRangeList(data)
		check("decodeRangeList", err)
		_, err = decodeStats(data)
		check("decodeStats", err)
	})
}
