package agent

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"efdedup/internal/chunk"
)

// smallGear returns a 64/256/1024 chunker so tests cross many boundaries
// with small inputs.
func smallGear(t *testing.T) *chunk.GearChunker {
	t.Helper()
	g, err := chunk.NewGearChunker(64, 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reportsEqual compares Reports modulo Duration (wall clock is the one
// field concurrency may change).
func reportsEqual(a, b Report) bool {
	a.Duration, b.Duration = 0, 0
	return a == b
}

// TestConcurrentStreamsEquivalence runs many streams through ONE agent
// concurrently and checks each stream's report and manifest are
// bit-identical to the same stream processed alone on a fresh agent:
// the shared scheduler may interleave work any way it likes, but
// per-stream results must not change.
func TestConcurrentStreamsEquivalence(t *testing.T) {
	const streams = 24
	rng := rand.New(rand.NewSource(21))
	inputs := make([][]byte, streams)
	for i := range inputs {
		// Mixed sizes: empty, tiny, and multi-chunk with shared content
		// so cross-stream dedup paths light up too.
		n := []int{0, 100, 4 << 10, 64 << 10, 256 << 10}[i%5]
		inputs[i] = make([]byte, n)
		rng.Read(inputs[i])
	}

	// Boundary oracle per stream: the chunker is deterministic, so the
	// concurrent manifests must equal a plain SplitBytes run.
	wantManifests := make([][]chunk.ID, streams)
	for i, in := range inputs {
		cks, err := chunk.SplitBytes(smallGear(t), in)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cks {
			wantManifests[i] = append(wantManifests[i], c.ID)
		}
	}

	tb := newTestbed(t, 3)
	cl := tb.cloudClient(t)
	a, err := New(Config{
		Name: "conc", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: cl,
		Chunker: smallGear(t),
		// Small pools + tiny budget: maximum cross-stream contention.
		HashWorkers: 2, LookupInflight: 2,
		MaxStreams: 8, ArenaBudgetBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-register every stream's content on a second agent so lookups
	// are warm and reports are independent of concurrent upload races:
	// each stream then re-deduplicates its own content.
	warm, err := New(Config{
		Name: "warm", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: tb.cloudClient(t),
		Chunker: smallGear(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		if _, err := warm.ProcessBytes(context.Background(), fmt.Sprintf("warm-%d", i), in); err != nil {
			t.Fatal(err)
		}
	}
	// Re-derive the oracle against a warm index: same inputs, fresh
	// sequential agent, everything a duplicate.
	warmWant := make([]Report, streams)
	for i, in := range inputs {
		rep, err := warm.ProcessBytes(context.Background(), fmt.Sprintf("warmseq-%d", i), in)
		if err != nil {
			t.Fatal(err)
		}
		rep.Name = fmt.Sprintf("conc-%d", i)
		warmWant[i] = rep
	}

	var wg sync.WaitGroup
	got := make([]Report, streams)
	errs := make([]error, streams)
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("conc-%d", i)
			got[i], errs[i] = a.ProcessBytes(context.Background(), name, inputs[i])
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if errs[i] != nil {
			t.Fatalf("concurrent stream %d: %v", i, errs[i])
		}
		if !reportsEqual(got[i], warmWant[i]) {
			t.Errorf("stream %d report diverged under concurrency:\n got %+v\nwant %+v", i, got[i], warmWant[i])
		}
		m, err := cl.GetManifest(context.Background(), fmt.Sprintf("conc-%d", i))
		if err != nil {
			t.Fatalf("manifest conc-%d: %v", i, err)
		}
		if len(m) != len(wantManifests[i]) {
			t.Fatalf("stream %d manifest has %d chunks, want %d", i, len(m), len(wantManifests[i]))
		}
		for j := range m {
			if m[j] != wantManifests[i][j] {
				t.Fatalf("stream %d manifest chunk %d diverged", i, j)
			}
		}
	}

	// The scheduler must be fully drained: no arena bytes outstanding,
	// and the worker pools wind down to zero once the last stream left.
	if a.sched.budget != nil {
		a.sched.budget.mu.Lock()
		used, waiters := a.sched.budget.used, len(a.sched.budget.waiters)
		a.sched.budget.mu.Unlock()
		if used != 0 || waiters != 0 {
			t.Fatalf("arena budget not drained: used=%d waiters=%d", used, waiters)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.sched.mu.Lock()
		live := a.sched.hashLive + a.sched.lookLive
		streamsLeft := a.sched.streams
		a.sched.mu.Unlock()
		if live == 0 && streamsLeft == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler workers did not exit: live=%d streams=%d", live, streamsLeft)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerRoundRobin pins the fairness policy at the queue level:
// with one stream holding a deep backlog and another submitting a single
// job, pops must alternate — the deep queue yields after every job.
// (White-box: a zero-worker scheduler so pops are driven by the test.)
func TestSchedulerRoundRobin(t *testing.T) {
	s := newScheduler(0, 0, 0, newAgentMetrics(ModeRing))
	big := s.attach(&pipeline{})
	small := s.attach(&pipeline{})

	jobs := make(map[*hashJob]string)
	push := func(slot *streamSlot, label string) {
		j := &hashJob{done: make(chan struct{}, 1)}
		jobs[j] = label
		s.submitHash(slot, j)
	}
	push(big, "big-1")
	push(big, "big-2")
	push(big, "big-3")
	push(small, "small-1")

	var order []string
	s.mu.Lock()
	for i := 0; i < 4; i++ {
		_, j, ok := s.nextHash()
		if !ok {
			t.Fatal("queue drained early")
		}
		order = append(order, jobs[j])
	}
	s.mu.Unlock()
	want := []string{"big-1", "small-1", "big-2", "big-3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v (round-robin)", order, want)
		}
	}
	s.detach(big)
	s.detach(small)
}

// TestByteBudgetFIFO pins admission ordering: freed bytes go to the
// oldest waiter even when a younger, smaller request would fit.
func TestByteBudgetFIFO(t *testing.T) {
	b := newByteBudget(100, newAgentMetrics(ModeRing))
	b.acquire(80)

	bigDone := make(chan struct{})
	go func() {
		b.acquire(60) // waits: only 20 free
		close(bigDone)
	}()
	// Wait until the 60-byte request is parked.
	for {
		b.mu.Lock()
		n := len(b.waiters)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	smallDone := make(chan struct{})
	go func() {
		b.acquire(10) // would fit, but must queue behind the 60
		close(smallDone)
	}()
	for {
		b.mu.Lock()
		n := len(b.waiters)
		b.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-smallDone:
		t.Fatal("small request barged past a waiting large request")
	case <-time.After(10 * time.Millisecond):
	}
	b.release(80) // 100 free: grants 60 then 10, in order
	<-bigDone
	<-smallDone
	// Oversized requests clamp to the budget instead of deadlocking.
	done := make(chan struct{})
	go func() {
		b.release(60)
		b.release(10)
		b.acquire(10_000)
		b.release(10_000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("oversized acquire deadlocked")
	}
}

// TestMaxStreamsAdmission checks the MaxStreams gate: a second stream
// waits for the first seat, and a cancelled context aborts the wait.
func TestMaxStreamsAdmission(t *testing.T) {
	tb := newTestbed(t, 1)
	a, err := New(Config{
		Name: "gate", Mode: ModeCloudAssisted,
		Cloud:      tb.cloudClient(t),
		Chunker:    smallGear(t),
		MaxStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only seat with a stream whose reader blocks until told.
	release := make(chan struct{})
	first := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, err := a.ProcessStream(context.Background(), "holder", &seatReader{
			started: started, release: release, data: bytes.Repeat([]byte{7}, 4096),
		})
		first <- err
	}()
	<-started

	// Admission with a dead context fails without taking the seat.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.ProcessBytes(ctx, "cancelled", []byte("xx")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admission returned %v, want context.Canceled", err)
	}

	// A live waiter gets the seat once the holder finishes.
	second := make(chan error, 1)
	go func() {
		_, err := a.ProcessBytes(context.Background(), "waiter", []byte("yy"))
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("second stream finished while the seat was held (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("holder stream: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("waiting stream: %v", err)
	}
}

// seatReader signals started on the first Read and then blocks until
// release is closed, after which it serves data.
type seatReader struct {
	started chan struct{}
	release chan struct{}
	data    []byte
	once    sync.Once
	served  bool
}

func (g *seatReader) Read(p []byte) (int, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	if g.served {
		return 0, io.EOF
	}
	g.served = true
	return copy(p, g.data), nil
}

// TestConcurrentCancellation cancels half the streams mid-flight and
// checks the survivors finish, the cancelled ones error, and the arena
// budget drains to zero (every payload released exactly once).
func TestConcurrentCancellation(t *testing.T) {
	tb := newTestbed(t, 3)
	a, err := New(Config{
		Name: "cancel", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: tb.cloudClient(t),
		Chunker:     smallGear(t),
		HashWorkers: 2, LookupInflight: 2,
		ArenaBudgetBytes: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const streams = 16
	rng := rand.New(rand.NewSource(31))
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		data := make([]byte, 128<<10)
		rng.Read(data)
		ctx := context.Background()
		var cancel context.CancelFunc
		if i%2 == 0 {
			ctx, cancel = context.WithCancel(ctx)
			delay := time.Duration(rng.Intn(3)) * time.Millisecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		wg.Add(1)
		go func(i int, ctx context.Context, data []byte) {
			defer wg.Done()
			_, errs[i] = a.ProcessBytes(ctx, fmt.Sprintf("c-%d", i), data)
		}(i, ctx, data)
	}
	wg.Wait()
	for i := 1; i < streams; i += 2 {
		if errs[i] != nil {
			t.Fatalf("uncancelled stream %d failed: %v", i, errs[i])
		}
	}
	// Cancelled streams may or may not have raced the cancel; either
	// outcome is fine — what matters is the budget drains.
	if a.sched.budget != nil {
		a.sched.budget.mu.Lock()
		used, waiters := a.sched.budget.used, len(a.sched.budget.waiters)
		a.sched.budget.mu.Unlock()
		if used != 0 || waiters != 0 {
			t.Fatalf("arena budget leaked after cancellations: used=%d waiters=%d", used, waiters)
		}
	}
}

// TestBudgetSmallerThanLookupBatchMakesProgress: when the byte budget
// holds fewer chunks than one lookup batch, the admitted chunks sit in
// a partial lookup batch (and, being fresh, then a partial upload
// batch) while the chunker waits for their bytes. Both stages must send
// their partial batch rather than wait for a full one, or the stream
// never finishes. The same hold-and-wait across several streams hung
// TestConcurrentStreamsEquivalence under load.
func TestBudgetSmallerThanLookupBatchMakesProgress(t *testing.T) {
	tb := newTestbed(t, 3)
	a, err := New(Config{
		Name: "tight", Mode: ModeRing,
		Index: tb.ringIndex(t, 0), Cloud: tb.cloudClient(t),
		Chunker:          smallGear(t),
		ArenaBudgetBytes: 2 << 10, // a handful of chunks; LookupBatch is 32
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(data)
	done := make(chan error, 1)
	go func() {
		_, err := a.ProcessBytes(context.Background(), "tight", data)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("stream stalled: admission waits on bytes parked in a partial lookup batch")
	}
}
