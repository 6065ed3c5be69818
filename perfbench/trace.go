package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval recorded at a layer boundary the benchmark
// can see from outside the program: a public call it makes, a call into
// an interface it hands the program, or one RPC on a conn it wraps.
type Span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	Bytes  int64
	Count  int64
	Err    bool
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory while recording is on; the benchmark
// switches it on for timed phases only and writes the spans out when
// the run ends. A nil *Tracer is never handed out: untraced runs use no
// wrappers at all.
type Tracer struct {
	t0   time.Time
	next atomic.Int64
	on   atomic.Bool

	mu      sync.Mutex
	spans   []Span
	streams map[*byte]int64 // first byte of a ProcessBytes input -> stream span
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), streams: make(map[*byte]int64)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *Tracer) newID() int64 { return t.next.Add(1) }

// add records spans if recording is on.
func (t *Tracer) add(spans ...Span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *Tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// beginStream registers the input a ProcessBytes call is about to
// receive, so the chunker wrapper can parent its span under the stream.
func (t *Tracer) beginStream(data []byte) int64 {
	id := t.newID()
	if len(data) > 0 {
		t.mu.Lock()
		t.streams[&data[0]] = id
		t.mu.Unlock()
	}
	return id
}

func (t *Tracer) endStream(data []byte, id, start int64, err error) {
	if len(data) > 0 {
		t.mu.Lock()
		delete(t.streams, &data[0])
		t.mu.Unlock()
	}
	t.add(Span{ID: id, Name: "stream", Start: start, End: t.now(), Bytes: int64(len(data)), Err: err != nil})
}

func (t *Tracer) streamOf(data []byte) int64 {
	if len(data) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams[&data[0]]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child sticking out of its parent counts only inside it).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// writeSpans writes spans as CSV, one per line, with a header naming the
// run.
func writeSpans(path, header string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nid,parent,name,start_ns,end_ns,bytes,count,err\n", header)
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%t\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.Bytes, s.Count, s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
