package cloudstore

// Locality-preserving chunk containers — the read side of the store.
//
// The flat content-addressed chunk files that PutChunk writes are ideal
// for deduplicated *writes* (idempotent, crash-atomic) but terrible for
// *restores*: a stream's chunks end up as thousands of small files, and
// the old restore path paid one RPC and one disk read per chunk. Per the
// container-store designs surveyed in the fragmentation literature
// (partial repetition / container capping), chunks are additionally
// packed — in upload order, which is stream order — into fixed-target
// containers. A restore then makes one RPC per container it touches,
// asking only for the byte spans of the records it needs (one open and
// one positioned read per span on disk), and the number of containers a
// stream touches becomes the fragmentation measure.
//
// Container format (file "<root>/containers/<%016x>.cont", or an
// in-memory byte slice for Dir-less servers):
//
//	8 bytes  magic "EFCONT1\n"
//	repeated 32-byte chunk ID | u32 payload length | u32 crc32(payload) | payload
//
// Records are CRC-framed so a torn or bit-flipped container is detected
// at parse time, and every payload is still content-addressed by its
// chunk ID, so readers can verify end to end, also from a range read of
// whole records. Container files are installed with the same write-temp
// → fsync → rename → dir-fsync protocol as kvstore snapshots.
//
// Durability protocol: a chunk is acknowledged once its flat chunk file
// is durable (storeChunk). The open container is memory only; when it
// seals, the container file is installed durably and the flat files of
// the chunks it packed are deleted — they were the staging copies. A
// crash at any point leaves every chunk in at least one of the two
// places, and startup rebuilds the index from both.
//
// Bounded selective duplication: when a manifest's chunks are spread
// thinly over old containers (a later backup referencing a handful of
// mutated blocks per old stream), restoring it would touch many
// containers for a few chunks each. repack copies such sparsely
// referenced hot chunks into the current open container — deliberately
// storing them twice — and points the locator at the new, denser copy.
// The duplicated bytes are capped at DupFraction of the unique bytes
// packed, so dedup ratio degrades by a bounded, configured amount.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"efdedup/internal/chunk"
	"efdedup/internal/metrics"
)

// Container geometry and duplication defaults.
const (
	// DefaultContainerBytes is the target sealed-container payload size.
	DefaultContainerBytes = 4 << 20
	// DefaultDupFraction caps selective-duplication bytes at this
	// fraction of the unique bytes packed into containers.
	DefaultDupFraction = 0.05
	// DefaultSparseRefLimit: a manifest referencing a sealed container
	// for at most this many chunks counts that container as fragmenting,
	// making those chunks repack candidates.
	DefaultSparseRefLimit = 4
)

// containerMagic identifies a container file and its format version.
const containerMagic = "EFCONT1\n"

// containerRecordHeader is the per-record framing overhead.
const containerRecordHeader = chunk.IDSize + 8

// minPayloadOffset is the smallest payload offset a container can hold:
// the first record's payload, behind the magic and its header.
const minPayloadOffset = uint32(len(containerMagic) + containerRecordHeader)

// Locator addresses one chunk copy inside a sealed container: the
// container ID plus the payload's byte range within the container.
// Range reads reuse it to name any byte span of a container.
type Locator struct {
	Container uint64
	Offset    uint32
	Length    uint32
}

// appendContainerRecord frames one chunk into buf and returns the new
// buffer plus the payload's offset.
func appendContainerRecord(buf []byte, id chunk.ID, data []byte) ([]byte, uint32) {
	buf = append(buf, id[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(data))
	off := uint32(len(buf))
	buf = append(buf, data...)
	return buf, off
}

// parseContainer walks a container's records in order, verifying the
// frame CRCs, and hands each payload (a sub-slice of data) to fn. Any
// framing or CRC damage is ErrCorrupt: containers are installed
// atomically, so damage is real, not a crash artifact.
func parseContainer(data []byte, fn func(id chunk.ID, off uint32, payload []byte) error) error {
	if !bytes.HasPrefix(data, []byte(containerMagic)) {
		return fmt.Errorf("%w: container missing magic", ErrCorrupt)
	}
	return walkRecords(data, len(containerMagic), fn)
}

// walkRecords is parseContainer's record loop: it walks the records
// that fill data from off to the end, verifying framing and CRCs, and
// passes fn each payload with its offset in data. Restores walk a
// range-read reply, which is whole records back to back, with off 0.
func walkRecords(data []byte, off int, fn func(id chunk.ID, off uint32, payload []byte) error) error {
	for off < len(data) {
		if len(data)-off < containerRecordHeader {
			return fmt.Errorf("%w: truncated container record header at offset %d", ErrCorrupt, off)
		}
		var id chunk.ID
		copy(id[:], data[off:])
		n := binary.BigEndian.Uint32(data[off+chunk.IDSize:])
		crc := binary.BigEndian.Uint32(data[off+chunk.IDSize+4:])
		off += containerRecordHeader
		if uint64(len(data)-off) < uint64(n) {
			return fmt.Errorf("%w: truncated container payload for chunk %s", ErrCorrupt, id)
		}
		payload := data[off : off+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return fmt.Errorf("%w: container record crc mismatch for chunk %s", ErrCorrupt, id)
		}
		if err := fn(id, uint32(off), payload); err != nil {
			return err
		}
		off += int(n)
	}
	return nil
}

// readSpans range-reads r, a container of size bytes: the bytes of each
// span, concatenated. Spans must be sorted, disjoint and inside the
// container, which also caps the reply at the container size; anything
// else is ErrProto, before the reply is allocated.
func readSpans(r io.ReaderAt, size int64, spans []Locator) ([]byte, error) {
	var prevEnd, total uint64
	for i, sp := range spans {
		end := uint64(sp.Offset) + uint64(sp.Length)
		if uint64(sp.Offset) < prevEnd || end > uint64(size) {
			return nil, fmt.Errorf("%w: range %d [%d, %d) is unsorted, overlapping or past the container end %d", ErrProto, i, sp.Offset, end, size)
		}
		prevEnd, total = end, total+uint64(sp.Length)
	}
	out := make([]byte, total)
	pos := 0
	for _, sp := range spans {
		if n, err := r.ReadAt(out[pos:pos+int(sp.Length)], int64(sp.Offset)); n < int(sp.Length) {
			return nil, err
		}
		pos += int(sp.Length)
	}
	return out, nil
}

// containerStore is the append-side container writer plus the locator
// index. It packs incoming fresh chunks into an open in-memory
// container, seals containers at targetBytes (durably via the DiskStore
// when one is configured, as retained byte slices otherwise), and maps
// every packed chunk to its newest sealed copy.
type containerStore struct {
	disk           *DiskStore // nil keeps sealed containers in memory
	targetBytes    int
	dupFraction    float64
	sparseRefLimit int

	mu        sync.Mutex
	openID    uint64 // ID the open container will seal as
	open      []byte // encoded records (starts with magic)
	openFresh []chunk.ID
	loc       map[chunk.ID]Locator // sealed copies only
	sealed    map[uint64][]byte    // memory mode: sealed container bytes

	uniqueBytes int64 // first-copy payload bytes packed
	dupBytes    int64 // duplicated payload bytes packed

	sealedTotal  *metrics.Counter
	sealFailures *metrics.Counter
	repackChunks *metrics.Counter
	repackBytes  *metrics.Counter
}

// newContainerStore builds the writer. startID is one past the highest
// container recovered from disk (1 for a fresh store).
func newContainerStore(disk *DiskStore, targetBytes int, dupFraction float64, sparseRefLimit int, startID uint64) *containerStore {
	if targetBytes <= 0 {
		targetBytes = DefaultContainerBytes
	}
	if dupFraction < 0 {
		dupFraction = 0
	}
	if sparseRefLimit <= 0 {
		sparseRefLimit = DefaultSparseRefLimit
	}
	reg := metrics.Default()
	cs := &containerStore{
		disk:           disk,
		targetBytes:    targetBytes,
		dupFraction:    dupFraction,
		sparseRefLimit: sparseRefLimit,
		openID:         startID,
		open:           append([]byte(nil), containerMagic...),
		loc:            make(map[chunk.ID]Locator),
		sealedTotal:    reg.Counter("cloud_server_containers_sealed_total"),
		sealFailures:   reg.Counter("cloud_server_container_seal_failures_total"),
		repackChunks:   reg.Counter("cloud_server_repacked_chunks_total"),
		repackBytes:    reg.Counter("cloud_server_repacked_bytes_total"),
	}
	if disk == nil {
		cs.sealed = make(map[uint64][]byte)
	}
	return cs
}

// restoreLocators installs locators recovered from a disk scan.
func (cs *containerStore) restoreLocators(loc map[chunk.ID]Locator, uniqueBytes, dupBytes int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for id, l := range loc {
		cs.loc[id] = l
	}
	cs.uniqueBytes += uniqueBytes
	cs.dupBytes += dupBytes
}

// append packs one chunk into the open container, sealing it when the
// target size is reached. dup marks a selective-duplication copy, which
// is admitted only while the duplication budget has room; the return
// value reports whether the chunk was packed. Seal failures are absorbed
// (the chunk stays readable from its staged flat file) and surfaced via
// cloud_server_container_seal_failures_total.
func (cs *containerStore) append(id chunk.ID, data []byte, dup bool) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if dup {
		if float64(cs.dupBytes+int64(len(data))) > cs.dupFraction*float64(cs.uniqueBytes) {
			return false
		}
		cs.dupBytes += int64(len(data))
		cs.repackChunks.Inc()
		cs.repackBytes.Add(int64(len(data)))
	} else {
		cs.uniqueBytes += int64(len(data))
		cs.openFresh = append(cs.openFresh, id)
	}
	cs.open, _ = appendContainerRecord(cs.open, id, data)
	if len(cs.open)-len(containerMagic) >= cs.targetBytes {
		cs.sealLocked()
	}
	return true
}

// flush seals the open container regardless of fill level.
func (cs *containerStore) flush() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.sealLocked()
}

// sealLocked installs the open container and registers its locators.
// On a disk-install failure the open container is discarded: its fresh
// chunks remain durable (and readable) as staged flat files, so nothing
// is lost — only read locality for those chunks.
func (cs *containerStore) sealLocked() {
	if len(cs.open) <= len(containerMagic) {
		return
	}
	id := cs.openID
	data := cs.open
	fresh := cs.openFresh
	cs.openID++
	cs.open = append([]byte(nil), containerMagic...)
	cs.openFresh = nil
	if cs.disk != nil {
		if err := cs.disk.PutContainer(id, data); err != nil {
			cs.sealFailures.Inc()
			return
		}
	} else {
		cs.sealed[id] = data
	}
	// The container is durable; every record in it supersedes older
	// copies (repacks point restores at the denser, newer container).
	if err := parseContainer(data, func(cid chunk.ID, off uint32, payload []byte) error {
		cs.loc[cid] = Locator{Container: id, Offset: off, Length: uint32(len(payload))}
		return nil
	}); err != nil {
		// Only possible if the buffer this function just encoded is
		// corrupt in memory. Register nothing: the fresh chunks stay
		// readable from their staged flat files.
		cs.sealFailures.Inc()
		return
	}
	cs.sealedTotal.Inc()
	if cs.disk != nil {
		// The staged flat files of the packed fresh chunks were only
		// ever the write-ahead copies; drop them now that the container
		// holds the data. Best effort: a crash in this loop leaves
		// harmless duplicates that the next startup tolerates.
		for _, cid := range fresh {
			cs.disk.RemoveChunk(cid)
		}
	}
}

// statsSnapshot returns the sealed-container count (IDs consumed so
// far) and duplicated payload bytes under the store's lock.
func (cs *containerStore) statsSnapshot() (sealed, dupBytes int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return int64(cs.openID - 1), cs.dupBytes
}

// locate returns the sealed-copy locator of a chunk, if any.
func (cs *containerStore) locate(id chunk.ID) (Locator, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	l, ok := cs.loc[id]
	return l, ok
}

// readRanges serves a range read of a sealed container (see readSpans).
// A single span of an in-memory container is a zero-copy sub-slice.
func (cs *containerStore) readRanges(id uint64, spans []Locator) ([]byte, error) {
	if cs.disk != nil {
		return cs.disk.ReadContainerRanges(id, spans)
	}
	cs.mu.Lock()
	data, ok := cs.sealed[id]
	cs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	if len(spans) == 1 && uint64(spans[0].Offset)+uint64(spans[0].Length) <= uint64(len(data)) {
		end := spans[0].Offset + spans[0].Length
		return data[spans[0].Offset:end:end], nil
	}
	return readSpans(bytes.NewReader(data), int64(len(data)), spans)
}

// readChunk serves one chunk payload from its sealed container copy,
// verifying the content address.
func (cs *containerStore) readChunk(id chunk.ID) ([]byte, error) {
	loc, ok := cs.locate(id)
	if !ok {
		return nil, ErrNotFound
	}
	payload, err := cs.readRanges(loc.Container, []Locator{loc})
	if errors.Is(err, ErrProto) {
		// The locator is the server's own, so a span past the end
		// means the container file lost bytes.
		return nil, fmt.Errorf("%w: container %d truncated", ErrCorrupt, loc.Container)
	}
	if err != nil {
		return nil, err
	}
	if chunk.Sum(payload) != id {
		return nil, fmt.Errorf("%w: chunk %s corrupt in container %d", ErrCorrupt, id, loc.Container)
	}
	return payload, nil
}

// sparseContainers returns, for a manifest's chunk sequence, the set of
// sealed containers the manifest references at or below the sparse
// limit — the containers whose chunks fragment a restore of this stream.
func (cs *containerStore) sparseContainers(ids []chunk.ID) map[uint64]bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	refs := make(map[uint64]int)
	seen := make(map[chunk.ID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if l, ok := cs.loc[id]; ok {
			refs[l.Container]++
		}
	}
	sparse := make(map[uint64]bool)
	for c, n := range refs {
		if n <= cs.sparseRefLimit {
			sparse[c] = true
		}
	}
	return sparse
}
