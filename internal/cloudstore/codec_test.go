package cloudstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"efdedup/internal/chunk"
)

func codecChunk(data string) chunk.Chunk {
	return chunk.Chunk{ID: chunk.Sum([]byte(data)), Data: []byte(data)}
}

func TestChunkListRoundTrip(t *testing.T) {
	in := []chunk.Chunk{codecChunk("a"), codecChunk("bb"), {ID: chunk.Sum(nil)}}
	out, err := decodeChunkList(encodeChunkList(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d chunks, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("chunk %d mutated", i)
		}
	}
}

// TestChunkListHostile pins the count/length validation: counts the
// payload cannot hold are rejected before allocation, payload lengths
// are compared in 64-bit arithmetic, and trailing bytes are an error.
func TestChunkListHostile(t *testing.T) {
	valid := encodeChunkList([]chunk.Chunk{codecChunk("x")})

	overflow := binary.BigEndian.AppendUint32(nil, 1)
	overflow = append(overflow, make([]byte, chunk.IDSize)...)
	overflow = binary.BigEndian.AppendUint32(overflow, 1<<32-8) // wraps IDSize+4+n in 32-bit
	overflow = append(overflow, make([]byte, 8)...)

	cases := map[string][]byte{
		"empty":           nil,
		"count too large": binary.BigEndian.AppendUint32(nil, 1<<30),
		"truncated":       valid[:len(valid)-1],
		"overflow length": overflow,
		"trailing":        append(append([]byte{}, valid...), 1),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeChunkList(payload); !errors.Is(err, ErrProto) {
				t.Fatalf("hostile chunk list not rejected with ErrProto: %v", err)
			}
		})
	}
}

func TestCommitRoundTrip(t *testing.T) {
	tail := []chunk.Chunk{codecChunk("tail one"), codecChunk("tail two")}
	ids := []chunk.ID{chunk.Sum([]byte("earlier")), tail[0].ID, tail[1].ID, tail[0].ID}
	for _, tc := range []struct {
		name string
		tail []chunk.Chunk
		ids  []chunk.ID
	}{
		{"with tail", tail, ids},
		{"empty tail", nil, ids},
		{"empty stream", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := encodeCommit("backup/1", tc.tail, tc.ids)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if len(body) != cap(body) {
				t.Fatalf("body of %d bytes has capacity %d: not sized exactly", len(body), cap(body))
			}
			name, gotTail, gotIDs, err := decodeCommit(body)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if name != "backup/1" || len(gotTail) != len(tc.tail) || len(gotIDs) != len(tc.ids) {
				t.Fatalf("round trip gave %q, %d tail chunks, %d IDs", name, len(gotTail), len(gotIDs))
			}
			for i := range tc.tail {
				if gotTail[i].ID != tc.tail[i].ID || !bytes.Equal(gotTail[i].Data, tc.tail[i].Data) {
					t.Fatalf("tail chunk %d mutated", i)
				}
			}
			for i := range tc.ids {
				if gotIDs[i] != tc.ids[i] {
					t.Fatalf("ID %d mutated", i)
				}
			}
		})
	}
	if _, err := encodeCommit(string(make([]byte, 70000)), nil, nil); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized name not rejected: %v", err)
	}
}

// hostileCommits are malformed putmanifest bodies: each must fail to
// decode with ErrProto (shared with the fuzz seeds).
func hostileCommits() map[string][]byte {
	head, _ := encodeCommit("n", nil, nil) // u16 len | "n" | u32 0
	prefix := head[:3]
	ck := codecChunk("x")
	valid, _ := encodeCommit("n", []chunk.Chunk{ck}, []chunk.ID{ck.ID})

	count := binary.BigEndian.AppendUint32(append([]byte{}, prefix...), 1<<30)
	pastBody := binary.BigEndian.AppendUint32(append([]byte{}, prefix...), 1)
	pastBody = append(pastBody, ck.ID[:]...)
	pastBody = binary.BigEndian.AppendUint32(pastBody, 1<<20)
	pastBody = append(pastBody, ck.Data...)
	return map[string][]byte{
		"no chunk list":      prefix,
		"hostile tail count": count,
		"tail past body":     pastBody,
		"misaligned IDs":     append(append([]byte{}, valid...), 0xAB),
		"truncated tail":     valid[:len(valid)-chunk.IDSize-1],
	}
}

func TestCommitHostile(t *testing.T) {
	for name, body := range hostileCommits() {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := decodeCommit(body); !errors.Is(err, ErrProto) {
				t.Fatalf("hostile commit not rejected with ErrProto: %v", err)
			}
		})
	}
}

// TestEncodersAllocateOnce pins the up-front sizing of the upload
// encoders: the request body is their only allocation, so a tail
// payload is copied into it exactly once and never regrown.
func TestEncodersAllocateOnce(t *testing.T) {
	chunks := make([]chunk.Chunk, 64)
	for i := range chunks {
		data := bytes.Repeat([]byte{byte(i)}, 8192)
		chunks[i] = chunk.Chunk{ID: chunk.Sum(data), Data: data}
	}
	ids := make([]chunk.ID, 256)
	if n := testing.AllocsPerRun(20, func() { _ = encodeChunkList(chunks) }); n != 1 {
		t.Errorf("encodeChunkList: %v allocations per encode, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = encodeCommit("stream", chunks, ids) }); n != 1 {
		t.Errorf("encodeCommit: %v allocations per encode, want 1", n)
	}
}

func TestIDListRoundTrip(t *testing.T) {
	in := []chunk.ID{chunk.Sum([]byte("1")), chunk.Sum([]byte("2"))}
	out, err := decodeIDList(encodeIDList(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatal("round trip mutated the IDs")
	}
	// A count of 2^27 would ask for 2^32 bytes: the exact-length check in
	// 64-bit arithmetic must reject it rather than wrap.
	huge := binary.BigEndian.AppendUint32(nil, 1<<27)
	if _, err := decodeIDList(huge); !errors.Is(err, ErrProto) {
		t.Fatalf("hostile count not rejected: %v", err)
	}
	if _, err := decodeIDList(encodeIDList(in)[:10]); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated list not rejected: %v", err)
	}
}

func TestNamedBlobRoundTrip(t *testing.T) {
	body, err := encodeNamedBlob("backup/2026-08.img", []byte("payload"))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	name, payload, err := decodeNamedBlob(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if name != "backup/2026-08.img" || string(payload) != "payload" {
		t.Fatalf("round trip gave %q / %q", name, payload)
	}
	if _, err := encodeNamedBlob(string(make([]byte, 70000)), nil); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized name not rejected: %v", err)
	}
	if _, _, err := decodeNamedBlob([]byte{0}); !errors.Is(err, ErrProto) {
		t.Fatalf("short header not rejected: %v", err)
	}
	if _, _, err := decodeNamedBlob([]byte{0xFF, 0xFF, 'x'}); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated name not rejected: %v", err)
	}
}

func TestManifestIDsRoundTrip(t *testing.T) {
	in := []chunk.ID{chunk.Sum([]byte("m1")), chunk.Sum([]byte("m2")), chunk.Sum([]byte("m3"))}
	out, err := decodeManifestIDs(encodeManifestIDs(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 3 || out[0] != in[0] || out[2] != in[2] {
		t.Fatal("round trip mutated the IDs")
	}
	if _, err := decodeManifestIDs(make([]byte, chunk.IDSize+1)); !errors.Is(err, ErrProto) {
		t.Fatalf("misaligned list not rejected: %v", err)
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	in := []RecipeEntry{
		{ID: chunk.Sum([]byte("r1")), Loc: Locator{Container: 3, Offset: 128, Length: 512}},
		{ID: chunk.Sum([]byte("r2"))}, // zero locator = fallback
	}
	out, err := decodeRecipe(encodeRecipe(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mutated the recipe: %v", out)
	}
	huge := binary.BigEndian.AppendUint32(nil, 1<<27) // 2^27 * 48 bytes claimed
	if _, err := decodeRecipe(huge); !errors.Is(err, ErrProto) {
		t.Fatalf("hostile count not rejected: %v", err)
	}
	if _, err := decodeRecipe(encodeRecipe(in)[:20]); !errors.Is(err, ErrProto) {
		t.Fatalf("truncated recipe not rejected: %v", err)
	}
}

// TestRecipeRejectsNonRecordLocators: a sealed locator must address a
// payload behind the magic and a record header without wrapping uint32,
// or restore span planning (Offset-header, Offset+Length) would wrap.
func TestRecipeRejectsNonRecordLocators(t *testing.T) {
	id := chunk.Sum([]byte("loc"))
	cases := []struct {
		name string
		loc  Locator
		ok   bool
	}{
		{"offset zero", Locator{Container: 1, Offset: 0, Length: 4}, false},
		{"offset inside the header", Locator{Container: 1, Offset: containerRecordHeader - 1, Length: 4}, false},
		{"offset inside the first header", Locator{Container: 1, Offset: minPayloadOffset - 1, Length: 4}, false},
		{"end wraps uint32", Locator{Container: 1, Offset: 1 << 31, Length: 1 << 31}, false},
		{"end wraps by one", Locator{Container: 1, Offset: 0xFFFFFFFF, Length: 1}, false},
		{"first payload", Locator{Container: 1, Offset: minPayloadOffset, Length: 4}, true},
		{"end at uint32 max", Locator{Container: 1, Offset: 0xFFFFFFF0, Length: 0xF}, true},
		{"fallback entry", Locator{}, true},
	}
	for _, tc := range cases {
		in := []RecipeEntry{{ID: id, Loc: Locator{Container: 2, Offset: 100, Length: 8}}, {ID: id, Loc: tc.loc}}
		out, err := decodeRecipe(encodeRecipe(in))
		if tc.ok {
			if err != nil || out[1] != in[1] {
				t.Errorf("%s: decode = %v, %v; want the entry back", tc.name, out, err)
			}
		} else if !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", tc.name, err)
		}
	}
}

func TestRangeListRoundTrip(t *testing.T) {
	in := []Locator{{Container: 9, Offset: 8, Length: 48}, {Container: 9, Offset: 4096, Length: 0xFFFF}}
	id, out, err := decodeRangeList(encodeRangeList(9, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != 9 || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mutated the ranges: %d %v", id, out)
	}
	if _, out, err := decodeRangeList(encodeRangeList(3, nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty range list = %v, %v", out, err)
	}
	body := encodeRangeList(9, in)
	hostile := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 9), 0xFFFFFFFF)
	for name, b := range map[string][]byte{
		"short header":  body[:11],
		"hostile count": hostile,
		"truncated":     body[:len(body)-1],
		"trailing":      append(body, 0),
	} {
		if _, _, err := decodeRangeList(b); !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", name, err)
		}
	}
}

func TestChunkDataRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("one"), nil, []byte("three")}
	out, err := decodeChunkData(encodeChunkData(in), len(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 3 || string(out[0]) != "one" || len(out[1]) != 0 || string(out[2]) != "three" {
		t.Fatalf("round trip mutated the payloads: %q", out)
	}
	// The old client-side loop compared uint32(len(resp)) < n: a length
	// near 2^32 wrapped the check and panicked on the reslice.
	overflow := binary.BigEndian.AppendUint32(nil, 1<<32-2)
	overflow = append(overflow, make([]byte, 8)...)
	if _, err := decodeChunkData(overflow, 1); !errors.Is(err, ErrProto) {
		t.Fatalf("overflow length not rejected: %v", err)
	}
	if _, err := decodeChunkData(encodeChunkData(in), 4); !errors.Is(err, ErrProto) {
		t.Fatalf("short response not rejected: %v", err)
	}
	if _, err := decodeChunkData(encodeChunkData(in), 2); !errors.Is(err, ErrProto) {
		t.Fatalf("trailing payload not rejected: %v", err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		UniqueChunks: 1, UniqueBytes: 2, LogicalBytes: 3, RawUploads: 4,
		Manifests: 5, ContainersSealed: 6, DuplicatedBytes: 7,
	}
	out, err := decodeStats(encodeStats(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mutated stats: %+v", out)
	}
	if _, err := decodeStats(make([]byte, 55)); !errors.Is(err, ErrProto) {
		t.Fatalf("short stats not rejected: %v", err)
	}
}
