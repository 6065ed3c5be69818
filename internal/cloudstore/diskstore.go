package cloudstore

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"efdedup/internal/chunk"
)

// DiskStore persists chunks, containers and manifests under a directory,
// making the central store durable across restarts:
//
//	<root>/chunks/ab/abcdef....chunk   (content-addressed staging files,
//	                                    fan-out by the first ID byte)
//	<root>/containers/<%016x>.cont     (sealed locality containers)
//	<root>/manifests/<escaped name>    (sequence of 32-byte chunk IDs)
//
// Writes go through a temp file + fsync + rename + parent-dir fsync, so
// a crash never leaves a half-written object visible and a completed
// write survives power loss. The Server uses it when Config.Dir is set;
// payloads stay on disk and only the index (which IDs exist, and where
// their container copies live) is held in memory.
type DiskStore struct {
	root string
	mu   sync.Mutex // serializes manifest writes; chunk/container writes are idempotent
}

// NewDiskStore creates (if needed) the directory layout under root.
func NewDiskStore(root string) (*DiskStore, error) {
	if root == "" {
		return nil, fmt.Errorf("%w: empty disk store root", ErrConfig)
	}
	for _, dir := range []string{root, filepath.Join(root, "chunks"), filepath.Join(root, "containers"), filepath.Join(root, "manifests")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cloudstore: create %s: %w", dir, err)
		}
	}
	return &DiskStore{root: root}, nil
}

// chunkPath returns the fan-out path of a chunk ID.
func (d *DiskStore) chunkPath(id chunk.ID) string {
	hexID := id.String()
	return filepath.Join(d.root, "chunks", hexID[:2], hexID+".chunk")
}

// containerPath returns the path of a sealed container.
func (d *DiskStore) containerPath(id uint64) string {
	return filepath.Join(d.root, "containers", fmt.Sprintf("%016x.cont", id))
}

// Manifest names are percent-escaped into single filesystem names. The
// escaper must be injective — distinct names must never share a file —
// so '%' itself is escaped (listed first: strings.Replacer is a single
// non-overlapping pass, so "%2F" in a raw name becomes "%252F", not a
// fake separator), and the unescaper decodes longest sequences before
// the bare "%25".
var (
	manifestEscaper   = strings.NewReplacer("%", "%25", "/", "%2F", "\\", "%5C", ":", "%3A")
	manifestUnescaper = strings.NewReplacer("%2F", "/", "%5C", "\\", "%3A", ":", "%25", "%")
)

// escapeName makes a manifest name filesystem-safe; unescapeName inverts
// it exactly (round-trip property-tested).
func escapeName(name string) string   { return manifestEscaper.Replace(name) }
func unescapeName(name string) string { return manifestUnescaper.Replace(name) }

func (d *DiskStore) manifestPath(name string) string {
	return filepath.Join(d.root, "manifests", escapeName(name))
}

// writeAtomic writes data to path via a temp file, fsync, rename and
// parent-directory fsync, so a crash leaves either no file or a complete
// durable one — never a truncated chunk the dedup index already points
// at, and never a rename the directory forgot.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives power loss
// (the missing half of the rename protocol the fsyncrename analyzer
// checks).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cloudstore: sync dir %s: %w", dir, err)
	}
	return nil
}

// PutChunk stores one chunk; storing an existing chunk is a cheap no-op.
func (d *DiskStore) PutChunk(id chunk.ID, data []byte) error {
	path := d.chunkPath(id)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return writeAtomic(path, data)
}

// GetChunk reads one chunk's staged flat file, verifying its content
// address. Chunks already packed into a container have no flat file; the
// Server falls through to the container copy.
func (d *DiskStore) GetChunk(id chunk.ID) ([]byte, error) {
	data, err := os.ReadFile(d.chunkPath(id))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if chunk.Sum(data) != id {
		return nil, fmt.Errorf("%w: chunk %s corrupt on disk", ErrCorrupt, id)
	}
	return data, nil
}

// HasChunk reports whether a chunk's staged flat file exists on disk.
func (d *DiskStore) HasChunk(id chunk.ID) bool {
	_, err := os.Stat(d.chunkPath(id))
	return err == nil
}

// RemoveChunk deletes a chunk's staged flat file (called after the chunk
// was durably sealed into a container). Best effort by design.
func (d *DiskStore) RemoveChunk(id chunk.ID) {
	_ = os.Remove(d.chunkPath(id))
}

// PutContainer durably installs one sealed container.
func (d *DiskStore) PutContainer(id uint64, data []byte) error {
	return writeAtomic(d.containerPath(id), data)
}

// ReadContainerRanges range-reads a sealed container (see readSpans),
// opening the file once and reading each span at its offset.
func (d *DiskStore) ReadContainerRanges(id uint64, spans []Locator) ([]byte, error) {
	f, err := os.Open(d.containerPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readSpans(f, info.Size(), spans)
}

// PutManifest stores a file's chunk sequence.
func (d *DiskStore) PutManifest(name string, ids []chunk.ID) error {
	buf := make([]byte, 0, len(ids)*chunk.IDSize)
	for _, id := range ids {
		buf = append(buf, id[:]...)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return writeAtomic(d.manifestPath(name), buf)
}

// GetManifest reads a file's chunk sequence.
func (d *DiskStore) GetManifest(name string) ([]chunk.ID, error) {
	data, err := os.ReadFile(d.manifestPath(name))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	if len(data)%chunk.IDSize != 0 {
		return nil, fmt.Errorf("%w: manifest %q corrupt on disk", ErrCorrupt, name)
	}
	ids := make([]chunk.ID, len(data)/chunk.IDSize)
	for i := range ids {
		copy(ids[i][:], data[i*chunk.IDSize:])
	}
	return ids, nil
}

// LoadIndex walks the chunk directory and returns every staged chunk ID
// with its size — used by the Server to rebuild its in-memory index and
// statistics on restart. Chunks that were packed into containers before
// the shutdown are recovered by LoadContainers instead.
func (d *DiskStore) LoadIndex() (map[chunk.ID]int64, error) {
	out := make(map[chunk.ID]int64)
	chunksDir := filepath.Join(d.root, "chunks")
	err := filepath.WalkDir(chunksDir, func(path string, entry os.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		base := filepath.Base(path)
		if !strings.HasSuffix(base, ".chunk") {
			return nil
		}
		hexID := strings.TrimSuffix(base, ".chunk")
		raw, err := hex.DecodeString(hexID)
		if err != nil || len(raw) != chunk.IDSize {
			return nil // foreign file; ignore
		}
		info, err := entry.Info()
		if err != nil {
			return err
		}
		var id chunk.ID
		copy(id[:], raw)
		out[id] = info.Size()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadContainers scans the sealed containers and rebuilds the locator
// index: every packed chunk with its size and newest copy (the highest
// container ID wins, matching the writer's supersede rule), the
// duplicated-byte total, and the next container ID to seal as. A corrupt
// container fails the load loudly — containers are installed atomically,
// so damage is data loss, not a crash artifact.
func (d *DiskStore) LoadContainers() (loc map[chunk.ID]Locator, sizes map[chunk.ID]int64, dupBytes int64, nextID uint64, err error) {
	loc = make(map[chunk.ID]Locator)
	sizes = make(map[chunk.ID]int64)
	nextID = 1
	entries, err := os.ReadDir(filepath.Join(d.root, "containers"))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cont") || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "%016x.cont", &id); err != nil {
			continue // foreign file; ignore
		}
		data, err := os.ReadFile(filepath.Join(d.root, "containers", e.Name()))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		perr := parseContainer(data, func(cid chunk.ID, off uint32, payload []byte) error {
			if _, dup := sizes[cid]; dup {
				dupBytes += int64(len(payload))
			} else {
				sizes[cid] = int64(len(payload))
			}
			if prev, ok := loc[cid]; !ok || id >= prev.Container {
				loc[cid] = Locator{Container: id, Offset: off, Length: uint32(len(payload))}
			}
			return nil
		})
		if perr != nil {
			return nil, nil, 0, 0, fmt.Errorf("cloudstore: load container %d: %w", id, perr)
		}
		if id >= nextID {
			nextID = id + 1
		}
	}
	return loc, sizes, dupBytes, nextID, nil
}

// ManifestNames lists stored manifest names.
func (d *DiskStore) ManifestNames() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(d.root, "manifests"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		names = append(names, unescapeName(e.Name()))
	}
	return names, nil
}
