package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"efdedup/internal/agent"
	"efdedup/internal/cloudstore"
)

// stream is one named input, generated before timing starts.
type stream struct {
	name string
	data []byte
}

// ingestPhase is one closed-loop ingest: len(clients) client goroutines,
// client i driving agents[i%len(agents)], each sending its next stream
// only after the previous one was acknowledged (manifest stored).
type ingestPhase struct {
	bytes   int64
	wall    time.Duration
	lat     []time.Duration
	reports []agent.Report
	errs    []string
}

func ingest(ctx context.Context, tr *Tracer, agents []*agent.Agent, clients [][]stream) ingestPhase {
	var ph ingestPhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, streams := range clients {
		a := agents[i%len(agents)]
		wg.Add(1)
		go func(streams []stream) {
			defer wg.Done()
			for _, s := range streams {
				var id, spanStart int64
				if tr != nil {
					id, spanStart = tr.beginStream(s.data), tr.now()
				}
				t0 := time.Now()
				rep, err := a.ProcessBytes(ctx, s.name, s.data)
				lat := time.Since(t0)
				if tr != nil {
					tr.endStream(s.data, id, spanStart, err)
				}
				mu.Lock()
				if err != nil {
					ph.errs = append(ph.errs, fmt.Sprintf("ingest %s: %v", s.name, err))
				} else {
					ph.bytes += int64(len(s.data))
					ph.lat = append(ph.lat, lat)
					ph.reports = append(ph.reports, rep)
				}
				mu.Unlock()
			}
		}(streams)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// restorePhase is one closed-loop restore: client i restores its list
// through clouds[i%len(clouds)], comparing every byte with the input.
type restorePhase struct {
	bytes int64
	wall  time.Duration
	stats []cloudstore.RestoreStats
	errs  []string
}

func restore(ctx context.Context, tr *Tracer, clouds []*cloudstore.Client, clients [][]stream) restorePhase {
	var ph restorePhase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, streams := range clients {
		cl := clouds[i%len(clouds)]
		wg.Add(1)
		go func(streams []stream) {
			defer wg.Done()
			for _, s := range streams {
				var spanStart int64
				if tr != nil {
					spanStart = tr.now()
				}
				w := &compareWriter{want: s.data}
				st, err := cl.RestoreTo(ctx, s.name, w, cloudstore.RestoreOptions{})
				if err == nil && !w.identical() {
					err = fmt.Errorf("restored bytes differ from the input (%d of %d bytes matched)", w.matched, len(s.data))
				}
				if tr != nil {
					tr.add(Span{ID: tr.newID(), Name: "restore", Start: spanStart, End: tr.now(), Bytes: st.Bytes, Err: err != nil})
				}
				mu.Lock()
				if err != nil {
					ph.errs = append(ph.errs, fmt.Sprintf("restore %s: %v", s.name, err))
				} else {
					ph.bytes += st.Bytes
					ph.stats = append(ph.stats, st)
				}
				mu.Unlock()
			}
		}(streams)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// compareWriter checks a restore byte for byte against the input as it
// streams, without buffering it.
type compareWriter struct {
	want    []byte
	matched int
	bad     bool
}

func (w *compareWriter) Write(p []byte) (int, error) {
	if w.bad || len(p) > len(w.want)-w.matched || !bytes.Equal(p, w.want[w.matched:w.matched+len(p)]) {
		w.bad = true
		return len(p), nil
	}
	w.matched += len(p)
	return len(p), nil
}

func (w *compareWriter) identical() bool { return !w.bad && w.matched == len(w.want) }

// splitClients deals streams round-robin to n clients, keeping each
// client's share in input order.
func splitClients(streams []stream, n int) [][]stream {
	out := make([][]stream, n)
	for i, s := range streams {
		out[i%n] = append(out[i%n], s)
	}
	return out
}

// fillRandom fills buf with SplitMix64 output seeded by seed: fast,
// deterministic, and incompressible enough that no two generated
// streams share a chunk.
func fillRandom(buf []byte, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	var last [8]byte
	binary.LittleEndian.PutUint64(last[:], next())
	copy(buf[i:], last[:])
}
