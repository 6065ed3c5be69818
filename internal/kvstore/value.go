// Package kvstore implements the distributed key-value store that holds
// each D2-ring's deduplication index — the role Cassandra plays in the
// EF-dedup prototype (paper Sec. IV).
//
// The store is composed of:
//
//   - Node: one storage replica (in-memory table, optional write-ahead
//     log) exposed over the transport RPC protocol;
//   - Cluster: a client-side coordinator that places keys with consistent
//     hashing, answers batched membership probes, replicates batched
//     writes to γ nodes at a configurable write consistency (ONE /
//     QUORUM / ALL), delivers writes a replica missed by hinted handoff
//     and Merkle anti-entropy, and keeps per-peer health with heartbeats.
//
// Conflicts resolve by last-write-wins on a (version, coordinator) pair.
// This matches the needs of a dedup index: values are tiny chunk-metadata
// records, false negatives only cost a redundant upload, and false
// positives cannot happen because chunk IDs are content hashes.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrProto marks malformed or truncated wire payloads: the peer sent
// bytes the protocol cannot decode, so the retry layer must not spend
// budget re-sending the same frame.
var ErrProto = errors.New("kvstore: protocol error")

// ErrConfig marks invalid cluster assembly, membership changes or call
// arguments: caller mistakes, never transient.
var ErrConfig = errors.New("kvstore: invalid configuration")

// ErrClosed marks operations against a closed WAL or node: callers raced
// a shutdown, never transient.
var ErrClosed = errors.New("kvstore: closed")

// ErrCorrupt marks durable state (snapshot files) that fails its CRC or
// framing checks. Unlike a torn WAL tail — an expected crash artifact
// that is silently truncated — snapshot corruption means real damage,
// and recovery surfaces it instead of serving a silently shrunken index.
var ErrCorrupt = errors.New("kvstore: corrupt durable state")

// Entry is one stored record.
type Entry struct {
	// Value is the payload.
	Value []byte
	// Version orders concurrent writes (last-write-wins). Coordinators
	// derive it from wall-clock nanoseconds plus a tie-breaking counter.
	Version uint64
}

// --- wire helpers -----------------------------------------------------

// appendBytes appends a u32 length prefix plus the data.
func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// readBytes consumes one length-prefixed blob.
func readBytes(src []byte) (val, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated length prefix", ErrProto)
	}
	n := binary.BigEndian.Uint32(src)
	if uint64(len(src)-4) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: blob of %d bytes exceeds remaining %d", ErrProto, n, len(src)-4)
	}
	return src[4 : 4+n], src[4+n:], nil
}

// encodeEntry serializes one key+entry: a record-list element and a WAL
// record payload.
func encodeEntry(dst []byte, key []byte, e Entry) []byte {
	dst = appendBytes(dst, key)
	dst = binary.BigEndian.AppendUint64(dst, e.Version)
	dst = appendBytes(dst, e.Value)
	return dst
}

// decodeEntry consumes one encoded key+entry.
func decodeEntry(src []byte) (key []byte, e Entry, rest []byte, err error) {
	key, src, err = readBytes(src)
	if err != nil {
		return nil, Entry{}, nil, err
	}
	if len(src) < 8 {
		return nil, Entry{}, nil, fmt.Errorf("%w: truncated version", ErrProto)
	}
	e.Version = binary.BigEndian.Uint64(src)
	e.Value, rest, err = readBytes(src[8:])
	if err != nil {
		return nil, Entry{}, nil, err
	}
	return key, e, rest, nil
}

// record is one key+entry on the wire: an element of a kv.batchput
// request, a kv.scan or kv.pull response, and a queued hint.
type record struct {
	key []byte
	e   Entry
}

// encodeRecords serializes a record list — the kv.batchput request and
// the kv.scan / kv.pull response. The body is sized up front, so it is
// allocated once.
func encodeRecords(recs []record) []byte {
	n := 4
	for _, r := range recs {
		n += 16 + len(r.key) + len(r.e.Value)
	}
	out := make([]byte, 0, n)
	out = binary.BigEndian.AppendUint32(out, uint32(len(recs)))
	for _, r := range recs {
		out = encodeEntry(out, r.key, r.e)
	}
	return out
}

// decodeRecords parses a record list; the body must hold exactly count
// records. Keys and values alias the body, so the record slice is the
// only allocation.
func decodeRecords(body []byte) ([]record, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: truncated record list", ErrProto)
	}
	count := binary.BigEndian.Uint32(body)
	src := body[4:]
	// Each record costs at least 16 bytes (two length prefixes + version);
	// reject counts the payload cannot hold before allocating.
	if uint64(count) > uint64(len(src))/16 {
		return nil, fmt.Errorf("%w: record count %d exceeds what %d bytes can hold", ErrProto, count, len(src))
	}
	out := make([]record, count)
	for i := range out {
		key, e, rest, err := decodeEntry(src)
		if err != nil {
			return nil, fmt.Errorf("kvstore: record %d: %w", i, err)
		}
		out[i] = record{key: key, e: e}
		src = rest
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d records", ErrProto, len(src), count)
	}
	return out, nil
}

// encodeKeyList serializes a count-prefixed list of keys.
func encodeKeyList(keys [][]byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		out = appendBytes(out, k)
	}
	return out
}

// decodeKeyList parses a count-prefixed list of keys.
func decodeKeyList(src []byte) ([][]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("%w: truncated key list", ErrProto)
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	// Each key costs at least a 4-byte length prefix; a count that could
	// not possibly fit the remaining bytes is corrupt (and must not drive
	// the allocation below).
	if uint64(n) > uint64(len(src))/4+1 {
		return nil, fmt.Errorf("%w: key list count %d exceeds payload", ErrProto, n)
	}
	keys := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		var k []byte
		var err error
		k, src, err = readBytes(src)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}
