package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "stream", Start: 0, End: 100},
		// Overlapping children count once: [10,50] is covered.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent counts only inside it: [90,100].
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// A child starting before its parent counts from the parent's start.
		{ID: 6, Name: "scan", Start: 200, End: 260},
		{ID: 7, Parent: 6, Name: "emit", Start: 190, End: 210},
		{ID: 8, Parent: 6, Name: "emit", Start: 250, End: 255},
	}
	want := map[int64]int64{1: 50, 2: 10, 3: 30, 4: 30, 5: 10, 6: 45, 7: 20, 8: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	tr.add(Span{ID: 1})
	tr.on.Store(true)
	tr.add(Span{ID: 2})
	tr.on.Store(false)
	tr.add(Span{ID: 3})
	if got := tr.take(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("recorded %v, want only span 2", got)
	}
	if got := tr.take(); len(got) != 0 {
		t.Fatalf("take kept %v", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	same := func(n int, ms time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = ms * time.Millisecond
		}
		return out
	}
	// Three windows of 200 streams at 1 ms, one of which is a hiccup at
	// 50 ms; the 50 leftover streams join the last window.
	rounds := [][]time.Duration{
		same(150, 1), same(50, 1),
		same(200, 50),
		same(200, 1), same(50, 1),
	}
	if got := windowedPercentile(rounds, 0.95); got != 1 {
		t.Errorf("windowed p95 = %g ms, want 1 (the hiccup moves one window only)", got)
	}
	// Too few streams for a window: the plain percentile.
	short := [][]time.Duration{{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}}
	if got := windowedPercentile(short, 0.5); got != 2 {
		t.Errorf("p50 of a short run = %g ms, want 2", got)
	}
}
