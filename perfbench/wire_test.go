package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"efdedup/internal/transport"
)

// frame builds one wire frame by the layout pinned in lint/wire.lock.
func frame(kind byte, id uint64, method string, status byte, body []byte) []byte {
	p := []byte{kind}
	p = binary.BigEndian.AppendUint64(p, id)
	if kind == frameRequest {
		p = append(p, byte(len(method)))
		p = append(p, method...)
	} else {
		p = append(p, status)
	}
	p = append(p, body...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
}

func TestFrameParserArbitraryCuts(t *testing.T) {
	frames := [][]byte{
		frame(frameRequest, 1, "kv.batchhas", 0, make([]byte, 300)),
		frame(frameResponse, 1, "", 0, nil),
		frame(frameRequest, 2, "cloud.getcontainer", 0, nil),
		frame(frameResponse, 2, "", 1, []byte("\x00\x00\x00\x04boom")),
		frame(frameRequest, 1<<40, "k", 0, []byte{1}),
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var p frameParser
		var got []frameInfo
		for rest := stream; len(rest) > 0; {
			n := 1 + rng.IntN(min(len(rest), 40))
			p.feed(rest[:n], 0, 0, func(f frameInfo) { got = append(got, f) })
			rest = rest[n:]
		}
		want := []frameInfo{
			{kind: frameRequest, id: 1, method: "kv.batchhas", size: int64(len(frames[0]))},
			{kind: frameResponse, id: 1, size: int64(len(frames[1]))},
			{kind: frameRequest, id: 2, method: "cloud.getcontainer", size: int64(len(frames[2]))},
			{kind: frameResponse, id: 2, status: 1, size: int64(len(frames[3]))},
			{kind: frameRequest, id: 1 << 40, method: "k", size: int64(len(frames[4]))},
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: parsed %+v, want %+v", trial, got, want)
		}
	}
}

// TestTracedConnMatchesTransport drives real transport.Client and
// Server round trips through the traced dialer and listener: concurrent
// calls on one conn, error responses included. Every call must produce
// exactly one client and one server span, with the method, error flag
// and wire byte count the frames actually carried.
func TestTracedConnMatchesTransport(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	mem := transport.NewMemNetwork()
	nw := traced(mem, tr)

	srv := transport.NewServer()
	srv.Handle("kv.batchhas", func(body []byte) ([]byte, error) {
		return append([]byte("ok:"), body...), nil
	})
	srv.Handle("cloud.getcontainer", func(body []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	l, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	conn, err := nw.Dial(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	cl := transport.NewClient(conn)
	defer cl.Close()

	const workers, calls = 8, 50
	var mu sync.Mutex
	wantBytes := map[string]int64{}
	wantCalls := map[string]int{}
	wantErrs := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				body := make([]byte, (w*calls+i)%97)
				method, stem := "kv.batchhas", "kvstore.batchhas"
				resp := 4 + framePrefix + 3 + len(body) // "ok:" + body
				if i%5 == 0 {
					method, stem = "cloud.getcontainer", "cloudstore.getcontainer"
					resp = 4 + framePrefix + 4 + len("boom") // u32 error length + message
				}
				_, err := cl.Call(context.Background(), method, body)
				if (method == "cloud.getcontainer") != transport.IsRemoteError(err) {
					t.Errorf("call %s: %v", method, err)
				}
				mu.Lock()
				wantCalls[stem]++
				wantBytes[stem] += int64(4+framePrefix+len(method)+len(body)) + int64(resp)
				if err != nil {
					wantErrs++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	spans := tr.take()
	for _, side := range []string{".client", ".server"} {
		gotCalls := map[string]int{}
		gotBytes := map[string]int64{}
		gotErrs := 0
		for _, s := range spans {
			stem, ok := strings.CutSuffix(s.Name, side)
			if !ok {
				continue
			}
			gotCalls[stem]++
			gotBytes[stem] += s.Bytes
			if s.Err {
				gotErrs++
			}
			if s.End < s.Start {
				t.Errorf("%s span ends before it starts", s.Name)
			}
		}
		if fmt.Sprint(gotCalls) != fmt.Sprint(wantCalls) || fmt.Sprint(gotBytes) != fmt.Sprint(wantBytes) || gotErrs != wantErrs {
			t.Errorf("%s spans: calls %v bytes %v errors %d; want calls %v bytes %v errors %d",
				side, gotCalls, gotBytes, gotErrs, wantCalls, wantBytes, wantErrs)
		}
	}
}
