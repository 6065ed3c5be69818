package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// countPrefixed hand-encodes records the long way: a u32 count, then
// each entry.
func countPrefixed(recs []record) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		body = encodeEntry(body, r.key, r.e)
	}
	return body
}

// TestBatchPutRejectsMalformedBodyWhole: a kv.batchput body is decoded
// in full before the first WAL append. A batch whose third record is
// truncated, or that carries bytes past its records, is ErrProto and
// leaves nothing logged or applied — not a logged, applied prefix.
func TestBatchPutRejectsMalformedBodyWhole(t *testing.T) {
	full := binary.BigEndian.AppendUint32(nil, 3)
	for i := 0; i < 3; i++ {
		full = encodeEntry(full, []byte(fmt.Sprintf("key-%d", i)), Entry{Value: []byte("v"), Version: uint64(i + 1)})
	}
	cases := map[string][]byte{
		"truncated third record": full[:len(full)-2],
		"trailing bytes":         append(append([]byte{}, full...), 0xEE, 0xEE),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "node.wal")
			node, err := NewNode(NodeConfig{WALPath: walPath, WALSync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			_, err = node.handleBatchPut(body)
			if !errors.Is(err, ErrProto) {
				t.Errorf("handleBatchPut = %v, want ErrProto", err)
			}
			if n := node.Len(); n != 0 {
				t.Errorf("malformed batch applied %d records, want 0", n)
			}
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}
			logged := 0
			if _, err := ReplayWAL(walPath, func([]byte, Entry) { logged++ }); err != nil {
				t.Fatal(err)
			}
			if logged != 0 {
				t.Errorf("malformed batch logged %d records, want 0", logged)
			}
		})
	}
}

// TestRecordsCodec pins the one record-list codec behind kv.batchput,
// kv.scan and kv.pull: it round-trips, and a decode refuses truncation
// and trailing bytes.
func TestRecordsCodec(t *testing.T) {
	in := []record{
		{key: []byte("a"), e: Entry{Version: 1, Value: []byte("x")}},
		{key: []byte{}, e: Entry{Version: 1 << 60}},
		{key: []byte("ccc"), e: Entry{Version: 3, Value: []byte("zz")}},
	}
	body := encodeRecords(in)
	if len(body) != cap(body) {
		t.Errorf("encodeRecords sized %d bytes for a %d-byte body", cap(body), len(body))
	}
	if string(body) != string(countPrefixed(in)) {
		t.Fatal("encodeRecords differs from the count-prefixed entry layout")
	}
	out, err := decodeRecords(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if string(out[i].key) != string(in[i].key) || out[i].e.Version != in[i].e.Version ||
			string(out[i].e.Value) != string(in[i].e.Value) {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	for name, bad := range map[string][]byte{
		"truncated":       body[:len(body)-1],
		"trailing":        append(append([]byte{}, body...), 0),
		"count too large": binary.BigEndian.AppendUint32(nil, 1<<30),
	} {
		if _, err := decodeRecords(bad); !errors.Is(err, ErrProto) {
			t.Errorf("%s: decodeRecords = %v, want ErrProto", name, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = decodeRecords(body) }); allocs > 1 {
		t.Errorf("decodeRecords allocated %.0f times per batch, want at most 1", allocs)
	}
}
