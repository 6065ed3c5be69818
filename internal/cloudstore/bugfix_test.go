package cloudstore

// Regression tests for the restore-path satellite bugfixes. Each test
// fails on the pre-fix code:
//
//   - escapeName used to leave '%' unescaped, so "a%2Fb" and "a/b"
//     collided on disk and ManifestNames un-escaped literal "%2F";
//   - handlePutManifest / the raw-upload manifest path used to update
//     the in-memory catalog before the durable disk write, advertising
//     manifests a restart would not have;
//   - the server accepted empty / "." / ".." manifest names;
//   - a chunk whose durable write failed was reported as a duplicate,
//     so the upload RPCs acknowledged chunks the cloud did not hold.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efdedup/internal/chunk"
)

func TestEscapeNamePercentCollisionRegression(t *testing.T) {
	// The exact pre-fix collision: both names escaped to "a%2Fb".
	if escapeName("a%2Fb") == escapeName("a/b") {
		t.Fatalf("escapeName is not injective: %q and %q collide at %q",
			"a%2Fb", "a/b", escapeName("a/b"))
	}
	// A literal-percent name must round-trip exactly.
	for _, name := range []string{"a%2Fb", "100%", "%", "%%25", "a%5Cb:c", "%2F%2F"} {
		if got := unescapeName(escapeName(name)); got != name {
			t.Errorf("round trip %q -> %q -> %q", name, escapeName(name), got)
		}
	}
}

// TestEscapeNameInjectiveProperty drives random names over the hostile
// alphabet and checks (1) exact round trips, (2) no two distinct names
// share an escaped form, (3) escaped forms contain no path separators.
func TestEscapeNameInjectiveProperty(t *testing.T) {
	alphabet := []rune{'a', 'b', '%', '/', '\\', ':', '2', '5', 'F', 'C', 'A', '.', '-', 'é'}
	rng := rand.New(rand.NewSource(42))
	seen := make(map[string]string)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		name := sb.String()
		esc := escapeName(name)
		if got := unescapeName(esc); got != name {
			t.Fatalf("round trip %q -> %q -> %q", name, esc, got)
		}
		if strings.ContainsAny(esc, "/\\") {
			t.Fatalf("escaped form %q still has a path separator", esc)
		}
		if prev, ok := seen[esc]; ok && prev != name {
			t.Fatalf("collision: %q and %q both escape to %q", prev, name, esc)
		}
		seen[esc] = name
	}
}

// TestManifestNamesPreservesLiteralEscapes stores two once-colliding
// names through a real DiskStore and checks both files exist and list
// back exactly.
func TestManifestNamesPreservesLiteralEscapes(t *testing.T) {
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []chunk.ID{chunk.Sum([]byte("x"))}
	ids2 := []chunk.ID{chunk.Sum([]byte("y"))}
	if err := d.PutManifest("a/b", ids); err != nil {
		t.Fatal(err)
	}
	if err := d.PutManifest("a%2Fb", ids2); err != nil {
		t.Fatal(err)
	}
	got1, err := d.GetManifest("a/b")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := d.GetManifest("a%2Fb")
	if err != nil {
		t.Fatal(err)
	}
	if got1[0] != ids[0] || got2[0] != ids2[0] {
		t.Fatal("colliding names overwrote each other")
	}
	names, err := d.ManifestNames()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a/b": true, "a%2Fb": true}
	if len(names) != 2 || !want[names[0]] || !want[names[1]] {
		t.Fatalf("ManifestNames = %v", names)
	}
}

func TestServerRejectsInvalidManifestNames(t *testing.T) {
	cl, srv := startCloud(t, Config{})
	ctx := context.Background()
	id := chunk.Sum([]byte("z"))
	for _, name := range []string{"", ".", ".."} {
		if err := cl.PutManifest(ctx, name, []chunk.ID{id}); !errors.Is(err, ErrProto) {
			t.Errorf("PutManifest(%q) = %v, want ErrProto", name, err)
		}
	}
	for _, name := range []string{".", ".."} {
		if _, err := cl.UploadRaw(ctx, name, []byte("data")); !errors.Is(err, ErrProto) {
			t.Errorf("UploadRaw(%q) = %v, want ErrProto", name, err)
		}
	}
	if srv.Stats().Manifests != 0 {
		t.Fatalf("rejected names still registered manifests: %+v", srv.Stats())
	}
}

// breakManifestDir replaces the store's manifests directory with a plain
// file so every subsequent durable manifest write fails (works even as
// root, where permission bits would not).
func breakManifestDir(t *testing.T, dir string) {
	t.Helper()
	mdir := filepath.Join(dir, "manifests")
	if err := os.RemoveAll(mdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mdir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPutManifestDurableFirst injects a disk failure into the manifest
// write and asserts the server does NOT advertise the manifest from
// memory — the durable write must come first.
func TestPutManifestDurableFirst(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	c := mkChunk("manifest body chunk")
	if _, err := cl.BatchUpload(ctx, []chunk.Chunk{c}); err != nil {
		t.Fatal(err)
	}
	breakManifestDir(t, dir)

	if err := cl.PutManifest(ctx, "phantom", []chunk.ID{c.ID}); err == nil {
		t.Fatal("PutManifest succeeded with a broken disk")
	}
	if _, err := cl.GetManifest(ctx, "phantom"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed durable write still advertised: GetManifest = %v, want ErrNotFound", err)
	}
	if st := srv.Stats(); st.Manifests != 0 {
		t.Fatalf("Manifests = %d after failed durable write, want 0", st.Manifests)
	}
}

// TestUploadRawManifestDurableFirst covers the same ordering bug on the
// mixed raw-upload path: chunks may land, but a manifest whose durable
// write failed must not exist.
func TestUploadRawManifestDurableFirst(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()

	breakManifestDir(t, dir)
	if _, err := cl.UploadRaw(ctx, "phantom-raw", []byte("some raw stream data")); err == nil {
		t.Fatal("UploadRaw succeeded with a broken manifest dir")
	}
	if _, err := cl.GetManifest(ctx, "phantom-raw"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed durable write still advertised: %v", err)
	}
	if st := srv.Stats(); st.Manifests != 0 {
		t.Fatalf("Manifests = %d, want 0", st.Manifests)
	}
}

// breakChunkDir replaces the store's staged-chunk directory with a plain
// file so every subsequent durable chunk write fails.
func breakChunkDir(t *testing.T, dir string) {
	t.Helper()
	cdir := filepath.Join(dir, "chunks")
	if err := os.RemoveAll(cdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cdir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailedChunkWriteIsNotAcknowledged: a chunk whose durable write
// failed used to be reported as a duplicate, so every upload path
// acknowledged a chunk the cloud did not hold. Each must now fail the
// RPC, and the cloud must keep reporting the chunk absent.
func TestFailedChunkWriteIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	cl, srv := startCloud(t, Config{Dir: dir})
	ctx := context.Background()
	breakChunkDir(t, dir)

	batched, tail := mkChunk("batched"), mkChunk("tail")
	if _, err := cl.BatchUpload(ctx, []chunk.Chunk{batched}); err == nil {
		t.Error("BatchUpload acknowledged a chunk whose write failed")
	}
	if _, err := cl.UploadRaw(ctx, "raw", []byte("raw stream whose chunks cannot be written")); err == nil {
		t.Error("UploadRaw acknowledged chunks whose write failed")
	}
	if err := cl.PutManifest(ctx, "committed", []chunk.ID{tail.ID}, tail); err == nil {
		t.Error("PutManifest acknowledged a tail chunk whose write failed")
	}
	held, err := cl.BatchHas(ctx, []chunk.ID{batched.ID, tail.ID})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range held {
		if h {
			t.Errorf("BatchHas reports chunk %d present after its write failed", i)
		}
	}
	if st := srv.Stats(); st.UniqueChunks != 0 || st.Manifests != 0 {
		t.Fatalf("stats after failed writes: %+v, want no chunks and no manifests", st)
	}
}
