package main

import (
	"context"
	"slices"
	"testing"
	"unsafe"

	"efdedup/internal/chunk"
)

func TestTracedChunkerKeepsFastPaths(t *testing.T) {
	c := newChunker(newTracer())
	if _, ok := c.(chunk.RawBytesChunker); !ok {
		t.Error("traced chunker does not implement chunk.RawBytesChunker")
	}
	if _, ok := c.(chunk.RawChunker); !ok {
		t.Error("traced chunker does not implement chunk.RawChunker")
	}

	// The zero-copy scanner hands out payloads aliasing the input.
	data := randomStreams(7, "alias", 1)[0].data
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	err := c.(chunk.RawBytesChunker).SplitRawBytes(data, func(r chunk.Raw) error {
		if p := uintptr(unsafe.Pointer(&r.Data[0])); p < lo || p >= hi {
			t.Fatalf("payload at offset %d was copied, not aliased", r.Offset)
		}
		r.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTracedChunkerSameManifests ingests the same streams through an
// untraced and a traced deployment: the manifests must be identical,
// and the traced one must have recorded one scan span per stream,
// parented under it, counting the chunks the agent reported.
func TestTracedChunkerSameManifests(t *testing.T) {
	ctx := context.Background()
	streams := randomStreams(3, "fidelity", 6)
	manifests := func(tr *Tracer) ([][]chunk.ID, ingestPhase) {
		d, err := deploy(memConfig(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		if tr != nil {
			tr.on.Store(true)
		}
		ph := ingest(ctx, tr, d.agents, splitClients(streams, clients))
		if len(ph.errs) > 0 {
			t.Fatal(ph.errs)
		}
		var out [][]chunk.ID
		for _, s := range streams {
			ids, err := d.clients[0].GetManifest(ctx, s.name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ids)
		}
		return out, ph
	}
	plain, _ := manifests(nil)
	tr := newTracer()
	traced, ph := manifests(tr)
	for i := range streams {
		if !slices.Equal(plain[i], traced[i]) {
			t.Errorf("stream %d: manifest differs with the traced chunker", i)
		}
	}

	spans := tr.take()
	streamIDs := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "stream" {
			streamIDs[s.ID] = true
		}
	}
	var scans, chunks, reported int64
	for _, s := range spans {
		if s.Name == "chunk.scan" {
			scans++
			chunks += s.Count
			if !streamIDs[s.Parent] {
				t.Errorf("scan span %d has parent %d, not a stream span", s.ID, s.Parent)
			}
		}
	}
	for _, rep := range ph.reports {
		reported += rep.InputChunks
	}
	if scans != int64(len(streams)) || chunks != reported {
		t.Errorf("recorded %d scans of %d chunks, want %d scans of %d chunks", scans, chunks, len(streams), reported)
	}
}
