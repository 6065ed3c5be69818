package cloudstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efdedup/internal/chunk"
)

func TestContainerRecordRoundTrip(t *testing.T) {
	buf := append([]byte(nil), containerMagic...)
	var want []chunk.Chunk
	for _, s := range []string{"alpha", "beta", "a much longer third chunk payload"} {
		c := mkChunk(s)
		want = append(want, c)
		buf, _ = appendContainerRecord(buf, c.ID, c.Data)
	}
	var got []chunk.Chunk
	err := parseContainer(buf, func(id chunk.ID, off uint32, payload []byte) error {
		if !bytes.Equal(buf[off:off+uint32(len(payload))], payload) {
			t.Fatalf("offset %d does not address payload", off)
		}
		got = append(got, chunk.Chunk{ID: id, Data: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestParseContainerDetectsDamage(t *testing.T) {
	c := mkChunk("payload under test")
	good, _ := appendContainerRecord(append([]byte(nil), containerMagic...), c.ID, c.Data)
	nop := func(chunk.ID, uint32, []byte) error { return nil }

	cases := map[string][]byte{
		"bad magic":         append([]byte("NOTCONT\n"), good[len(containerMagic):]...),
		"flipped payload":   flipByte(good, len(good)-1),
		"flipped crc":       flipByte(good, len(containerMagic)+chunk.IDSize+5),
		"truncated payload": good[:len(good)-3],
		"truncated header":  good[:len(containerMagic)+10],
	}
	for name, data := range cases {
		if err := parseContainer(data, nop); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := parseContainer(good, nop); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestContainerSealSupersedesStagedChunks verifies the two-layer
// durability protocol on disk: before a seal the chunk lives as a staged
// flat file; after a seal the flat file is gone and reads come from the
// container.
func TestContainerSealSupersedesStagedChunks(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var ids []chunk.ID
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		id, data := mkPayload(int64(100+i), 700) // 3 chunks per 2 KiB container
		ids = append(ids, id)
		payloads = append(payloads, data)
		if fresh, err := srv.storeChunk(id, data); err != nil || !fresh {
			t.Fatalf("chunk %d not stored: fresh=%v err=%v", i, fresh, err)
		}
	}
	srv.FlushContainers()

	for i, id := range ids {
		if srv.disk.HasChunk(id) {
			t.Errorf("chunk %d still staged after seal", i)
		}
		loc, ok := srv.containers.locate(id)
		if !ok {
			t.Fatalf("chunk %d has no locator after seal", i)
		}
		if loc.Container == 0 {
			t.Fatalf("chunk %d locator names container 0", i)
		}
		got, err := srv.chunkData(id)
		if err != nil {
			t.Fatalf("chunk %d unreadable after seal: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("chunk %d payload differs after seal", i)
		}
	}
	if st := srv.Stats(); st.ContainersSealed < 2 {
		t.Fatalf("ContainersSealed = %d, want >= 2", st.ContainersSealed)
	}
}

// TestLoadContainersRecovery restarts a disk-backed server and verifies
// the locator index, stats and data all come back from container files,
// and that container IDs keep growing instead of colliding.
func TestLoadContainersRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var ids []chunk.ID
	var payloads [][]byte
	for i := 0; i < 6; i++ {
		id, data := mkPayload(int64(200+i), 700)
		ids = append(ids, id)
		payloads = append(payloads, data)
		srv.storeChunk(id, data)
	}
	srv.FlushContainers()
	sealedBefore := srv.Stats().ContainersSealed
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(Config{Dir: dir, ContainerBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i, id := range ids {
		got, err := srv2.chunkData(id)
		if err != nil {
			t.Fatalf("chunk %d unreadable after restart: %v", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("chunk %d differs after restart", i)
		}
	}
	if st := srv2.Stats(); st.ContainersSealed != sealedBefore {
		t.Fatalf("ContainersSealed after restart = %d, want %d", st.ContainersSealed, sealedBefore)
	}
	// New containers must not collide with recovered ones.
	id, data := mkPayload(999, 1500)
	srv2.storeChunk(id, data)
	srv2.FlushContainers()
	loc, ok := srv2.containers.locate(id)
	if !ok {
		t.Fatal("post-restart chunk has no locator")
	}
	if loc.Container <= uint64(sealedBefore) {
		t.Fatalf("post-restart container ID %d collides with recovered %d", loc.Container, sealedBefore)
	}
}

func TestSelectiveDuplicationBudget(t *testing.T) {
	cs := newContainerStore(nil, 1<<20, 0.10, DefaultSparseRefLimit, 1)
	id, data := mkPayload(1, 1000)
	if !cs.append(id, data, false) {
		t.Fatal("unique append rejected")
	}
	// Budget is 10% of 1000 unique bytes = 100; a 1000-byte dup copy
	// must be refused, a small one admitted.
	if cs.append(id, data, true) {
		t.Fatal("over-budget duplicate admitted")
	}
	small, smallData := mkPayload(2, 80)
	if !cs.append(small, smallData, false) {
		t.Fatal("second unique append rejected")
	}
	if !cs.append(small, smallData, true) {
		t.Fatal("within-budget duplicate refused (budget 108, copy 80)")
	}
	if cs.append(small, smallData, true) {
		t.Fatal("budget spent but another duplicate admitted")
	}
}

// TestRepackSparseDuplicatesHotChunks stores stream A, seals it, then
// stores a later stream that reuses one chunk of A. That lone reference
// marks A's container sparse, so the shared chunk is repacked into the
// new stream's container and the locator moves to the denser copy.
func TestRepackSparseDuplicatesHotChunks(t *testing.T) {
	cl, srv := startCloud(t, Config{ContainerBytes: 1 << 20, DupFraction: 0.5})
	ctx := context.Background()

	var aChunks []chunk.Chunk
	var aIDs []chunk.ID
	for i := 0; i < 10; i++ {
		_, data := mkPayload(int64(300+i), 1000)
		c := chunk.Chunk{ID: chunk.Sum(data), Data: data}
		aChunks = append(aChunks, c)
		aIDs = append(aIDs, c.ID)
	}
	if _, err := cl.BatchUpload(ctx, aChunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "backup-1", aIDs); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()
	oldLoc, ok := srv.containers.locate(aIDs[0])
	if !ok {
		t.Fatal("stream A chunk has no locator after seal")
	}

	// Stream B: mostly fresh data plus one chunk shared with A.
	var bChunks []chunk.Chunk
	bIDs := []chunk.ID{aIDs[0]}
	for i := 0; i < 6; i++ {
		_, data := mkPayload(int64(400+i), 1000)
		c := chunk.Chunk{ID: chunk.Sum(data), Data: data}
		bChunks = append(bChunks, c)
		bIDs = append(bIDs, c.ID)
	}
	if _, err := cl.BatchUpload(ctx, bChunks); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "backup-2", bIDs); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	newLoc, ok := srv.containers.locate(aIDs[0])
	if !ok {
		t.Fatal("shared chunk lost its locator")
	}
	if newLoc.Container <= oldLoc.Container {
		t.Fatalf("shared chunk not repacked: container %d -> %d", oldLoc.Container, newLoc.Container)
	}
	if st := srv.Stats(); st.DuplicatedBytes < 1000 {
		t.Fatalf("DuplicatedBytes = %d, want >= 1000", st.DuplicatedBytes)
	}
	// The duplicated copy restores byte-identically.
	got, err := cl.Restore(ctx, "backup-2")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), aChunks[0].Data...), flatten(bChunks)...)
	if !bytes.Equal(got, want) {
		t.Fatal("restore after repack differs")
	}
}

func flatten(chunks []chunk.Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

// TestRestoreNamesCorruptContainer flips one payload byte inside a
// sealed container on disk and asserts the restore fails with ErrCorrupt
// naming the damaged container.
func TestRestoreNamesCorruptContainer(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir, ContainerBytes: 1 << 20})
	ctx := context.Background()

	data := bytes.Repeat([]byte("corrupt-me 0123456789"), 3000)
	if _, err := cl.UploadRaw(ctx, "victim", data); err != nil {
		t.Fatal(err)
	}
	srv.FlushContainers()

	conts, err := filepath.Glob(filepath.Join(dir, "containers", "*.cont"))
	if err != nil || len(conts) == 0 {
		t.Fatalf("no container files (err=%v)", err)
	}
	raw, err := os.ReadFile(conts[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(conts[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Restore(ctx, "victim")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore over corrupt container = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "container 1") {
		t.Fatalf("error does not name the container: %v", err)
	}
}

// TestRestoreNamesCorruptStagedChunk corrupts an unsealed chunk's staged
// flat file; the fallback fetch path must surface ErrCorrupt.
func TestRestoreNamesCorruptStagedChunk(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	c := mkChunk("soon to be damaged on disk")
	if _, err := cl.BatchUpload(ctx, []chunk.Chunk{c}); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutManifest(ctx, "fragile", []chunk.ID{c.ID}); err != nil {
		t.Fatal(err)
	}
	path := srv.disk.chunkPath(c.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restore(ctx, "fragile"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore over corrupt staged chunk = %v, want ErrCorrupt", err)
	}
}

// TestGetContainerRangeChecks drives the getcontainer handler with range
// lists against one sealed container, in memory and on disk: valid
// spans come back concatenated, and every malformed list is ErrProto
// before any reply is sized (a 4 GiB span must not be allocated).
func TestGetContainerRangeChecks(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		srv, err := NewServer(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var raw []byte
		for i := 0; i < 3; i++ {
			id, data := mkPayload(int64(700+i), 100)
			srv.storeChunk(id, data)
			raw, _ = appendContainerRecord(raw, id, data)
		}
		srv.FlushContainers()
		raw = append([]byte(containerMagic), raw...)
		size := uint32(len(raw))

		get := func(spans ...Locator) ([]byte, error) {
			return srv.handleGetContainer(encodeRangeList(1, spans))
		}
		got, err := get(Locator{Offset: 8, Length: 140}, Locator{Offset: 288, Length: 20})
		if err != nil || !bytes.Equal(got, append(raw[8:148:148], raw[288:308]...)) {
			t.Fatalf("dir=%q: two spans = %v, %v", dir, got, err)
		}
		if got, err := get(Locator{Offset: 0, Length: size}); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("dir=%q: whole container = %v, %v", dir, got, err)
		}
		if got, err := get(Locator{Offset: 8, Length: 40}, Locator{Offset: size, Length: 0}); err != nil || !bytes.Equal(got, raw[8:48]) {
			t.Fatalf("dir=%q: empty span at the end = %v, %v", dir, got, err)
		}
		bad := map[string][]Locator{
			"past the end":  {{Offset: size - 4, Length: 8}},
			"4 GiB span":    {{Offset: 0, Length: 0xFFFFFFFF}},
			"end wraps":     {{Offset: 0xFFFFFFFF, Length: 2}},
			"unsorted":      {{Offset: 200, Length: 10}, {Offset: 100, Length: 10}},
			"overlapping":   {{Offset: 100, Length: 20}, {Offset: 110, Length: 20}},
			"total > size":  {{Offset: 0, Length: size}, {Offset: 0, Length: size}},
			"repeated span": {{Offset: 8, Length: 40}, {Offset: 8, Length: 40}},
		}
		for name, spans := range bad {
			if _, err := get(spans...); !errors.Is(err, ErrProto) {
				t.Errorf("dir=%q: %s: err = %v, want ErrProto", dir, name, err)
			}
		}
		if _, err := srv.handleGetContainer(encodeRangeList(2, []Locator{{Offset: 0, Length: 1}})); !errors.Is(err, ErrNotFound) {
			t.Errorf("dir=%q: unknown container: err = %v, want ErrNotFound", dir, err)
		}
		srv.Close()
	}
}
