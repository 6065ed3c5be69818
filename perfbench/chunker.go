package main

import (
	"io"

	"efdedup/internal/chunk"
)

// tracedChunker wraps the gear chunker the agents are handed. It records
// one "chunk.scan" span per call, parented under the stream span of the
// input it is scanning, with one "agent.emit" child per chunk: the time
// the scanner sits inside the agent's callback (hash-stage hand-off and
// pipeline backpressure). The scan's self time is the chunker's own
// work.
//
// It must keep every fast path of the chunker it wraps: the agent
// type-asserts chunk.RawBytesChunker and chunk.RawChunker, and a wrapper
// without them would move a traced run off the zero-copy path.
type tracedChunker struct {
	inner *chunk.GearChunker
	tr    *Tracer
}

var (
	_ chunk.Chunker         = tracedChunker{}
	_ chunk.RawChunker      = tracedChunker{}
	_ chunk.RawBytesChunker = tracedChunker{}
)

// scanRec accumulates one chunker call's spans; they are handed to the
// tracer in one batch when the call returns.
type scanRec struct {
	tr     *Tracer
	id     int64
	parent int64
	start  int64
	chunks int64
	bytes  int64
	spans  []Span
}

func (c tracedChunker) begin(parent int64) *scanRec {
	return &scanRec{tr: c.tr, id: c.tr.newID(), parent: parent, start: c.tr.now()}
}

// emitted records one chunk of n bytes whose callback ran from t0 to now.
func (s *scanRec) emitted(n int, t0 int64) {
	s.chunks++
	s.bytes += int64(n)
	s.spans = append(s.spans, Span{ID: s.tr.newID(), Parent: s.id, Name: "agent.emit", Start: t0, End: s.tr.now()})
}

func (s *scanRec) end(err error) error {
	s.spans = append(s.spans, Span{ID: s.id, Parent: s.parent, Name: "chunk.scan", Start: s.start, End: s.tr.now(), Bytes: s.bytes, Count: s.chunks, Err: err != nil})
	s.tr.add(s.spans...)
	return err
}

func (c tracedChunker) SplitRawBytes(data []byte, emit func(chunk.Raw) error) error {
	s := c.begin(c.tr.streamOf(data))
	return s.end(c.inner.SplitRawBytes(data, func(r chunk.Raw) error {
		t0, n := s.tr.now(), len(r.Data)
		err := emit(r)
		s.emitted(n, t0)
		return err
	}))
}

func (c tracedChunker) SplitRaw(r io.Reader, emit func(chunk.Raw) error) error {
	s := c.begin(0)
	return s.end(c.inner.SplitRaw(r, func(raw chunk.Raw) error {
		t0, n := s.tr.now(), len(raw.Data)
		err := emit(raw)
		s.emitted(n, t0)
		return err
	}))
}

func (c tracedChunker) Split(r io.Reader, emit func(chunk.Chunk) error) error {
	s := c.begin(0)
	return s.end(c.inner.Split(r, func(ch chunk.Chunk) error {
		t0, n := s.tr.now(), len(ch.Data)
		err := emit(ch)
		s.emitted(n, t0)
		return err
	}))
}

// newChunker returns the default gear chunker, wrapped when tracing.
func newChunker(tr *Tracer) chunk.Chunker {
	g := chunk.NewDefaultGearChunker()
	if tr == nil {
		return g
	}
	return tracedChunker{inner: g, tr: tr}
}
