package tcp

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/comm"
)

// drainedConn returns a real loopback TCP connection whose far end is
// being drained, so writes never block on a full kernel buffer, plus a
// cleanup that closes both ends and joins the drain goroutine.
func drainedConn(tb testing.TB) (net.Conn, func()) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	type acceptResult struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := ln.Accept()
		accepted <- acceptResult{c, err}
	}()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		tb.Fatal(err)
	}
	ar := <-accepted
	ln.Close()
	if ar.err != nil {
		wc.Close()
		tb.Fatal(ar.err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for {
			if _, err := ar.conn.Read(buf); err != nil {
				return
			}
		}
	}()
	return wc, func() {
		wc.Close()
		ar.conn.Close()
		wg.Wait()
	}
}

func smallMsg() comm.Message {
	return comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: make([]byte, 64)}}}
}

func largeMsg() comm.Message {
	parts := make([]comm.Part, 8)
	for i := range parts {
		parts[i] = comm.Part{Origin: i, Data: make([]byte, 8<<10)}
	}
	return comm.Message{Tag: 1, Parts: parts}
}

// BenchmarkFrameWriteSmall is the steady-state send path for a small
// single-part frame: contiguous encode, one Write. Must report 0 allocs/op.
func BenchmarkFrameWriteSmall(b *testing.B) {
	conn, cleanup := drainedConn(b)
	defer cleanup()
	m := smallMsg()
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.SetBytes(int64(frameWireSize(m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrameTo(conn, 1, m, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteVectored is the steady-state send path for a large
// multi-part frame: gather list, one writev. Must report 0 allocs/op —
// payloads are referenced in place, never recopied.
func BenchmarkFrameWriteVectored(b *testing.B) {
	conn, cleanup := drainedConn(b)
	defer cleanup()
	m := largeMsg()
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.SetBytes(int64(frameWireSize(m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrameTo(conn, 1, m, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteLegacy is the pre-arena baseline (2k+1 writes,
// heap-allocated headers), kept so BENCH_tcp.json records the comparison
// the figTCPHotpath experiment gates on.
func BenchmarkFrameWriteLegacy(b *testing.B) {
	conn, cleanup := drainedConn(b)
	defer cleanup()
	m := smallMsg()
	b.ReportAllocs()
	b.SetBytes(int64(frameWireSize(m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFrameSeq(conn, 1, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRead measures the pooled decode path against a pre-
// encoded in-memory stream (recycling each message like the stale-drop
// path does, so the arena is exercised end to end).
func BenchmarkFrameRead(b *testing.B) {
	m := largeMsg()
	one := appendFrame(nil, 1, m)
	stream := bytes.NewReader(nil)
	rd := &frameReader{r: stream, src: 0, dst: 1}
	b.ReportAllocs()
	b.SetBytes(int64(len(one)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset(one)
		fr, _, err := rd.read()
		if err != nil {
			b.Fatal(err)
		}
		recycleMessage(fr)
	}
}

// BenchmarkSendRecvSteadyStateTCP measures the full engine hot path —
// Send through the pooled writer, pump decode into arena buffers,
// blocking Recv — as b.N ping-pong rounds over one warm 2-rank mesh.
// The send side is allocation-free; the remaining per-round allocations
// are the delivered payload buffers themselves, which ownership handoff
// deliberately leaves with the receiver (arena.go) — only undelivered
// frames recycle.
func BenchmarkSendRecvSteadyStateTCP(b *testing.B) {
	m, err := NewMachine(2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	msg := comm.Message{Tag: 1, Parts: []comm.Part{{Origin: 0, Data: make([]byte, 64)}}}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(Options{}, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.Send(1, msg)
				p.Recv(1)
			} else {
				p.Recv(0)
				p.Send(0, msg)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// TestFrameWriteAllocationFree asserts the tentpole's 0-allocs claim
// directly: steady-state frame writes — small/contiguous and
// large/vectored — allocate nothing once the scratch is warm.
func TestFrameWriteAllocationFree(t *testing.T) {
	conn, cleanup := drainedConn(t)
	defer cleanup()
	sc := getScratch()
	defer putScratch(sc)
	for _, tc := range []struct {
		name string
		m    comm.Message
	}{
		{"small-contiguous", smallMsg()},
		{"large-vectored", largeMsg()},
	} {
		write := func() {
			if err := writeFrameTo(conn, 1, tc.m, sc); err != nil {
				t.Fatal(err)
			}
		}
		write() // warm the scratch buffers
		if n := testing.AllocsPerRun(200, write); n != 0 {
			t.Errorf("%s: %v allocs per frame write, want 0", tc.name, n)
		}
	}
}

// TestReadFrameReusesArenaBuffers pins the receive-side pooling: decode
// and recycle in a loop must not allocate fresh buffers per frame once
// the pools are warm. It also runs under -race, where the slack absorbs
// the Puts sync.Pool drops at random; TestFrameReadRecycleAllocationFree
// pins the exact 0 outside it.
func TestReadFrameReusesArenaBuffers(t *testing.T) {
	m := comm.Message{Tag: 3, Parts: []comm.Part{
		{Origin: 0, Data: make([]byte, 1024)},
		{Origin: 1, Data: make([]byte, 100)},
	}}
	one := appendFrame(nil, 7, m)
	stream := bytes.NewReader(nil)
	rd := &frameReader{r: stream, src: 0, dst: 1}
	cycle := func() {
		stream.Reset(one)
		fr, _, err := rd.read()
		if err != nil {
			t.Fatal(err)
		}
		recycleMessage(fr)
	}
	cycle()
	// Decoding allocates payloads and a parts slice only when the pools
	// miss.
	if n := testing.AllocsPerRun(200, cycle); n > 3 {
		t.Errorf("%v allocs per decode-recycle cycle, want <= 3", n)
	}
}

// TestFrameReadRecycleAllocationFree pins BenchmarkFrameRead's 0
// allocs/op: once the arena is warm, reading an 8-part frame and
// recycling it (the stale-epoch and between-runs path) allocates
// nothing, not even the pools' slice-header boxes.
func TestFrameReadRecycleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	one := appendFrame(nil, 1, largeMsg())
	stream := bytes.NewReader(nil)
	rd := &frameReader{r: stream, src: 0, dst: 1}
	cycle := func() {
		stream.Reset(one)
		fr, _, err := rd.read()
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Parts) != 8 {
			t.Fatalf("decoded %d parts, want 8", len(fr.Parts))
		}
		recycleMessage(fr)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("%v allocs per read-recycle cycle of an 8-part frame, want 0", n)
	}
}

// TestBatchedRunMatchesUnbatched runs the same traffic with and without
// FlushThreshold batching; delivered bundles must be identical and the
// batched run must stay deadlock-free through the send-before-receive
// exchange pattern and barriers.
func TestBatchedRunMatchesUnbatched(t *testing.T) {
	const p = 4
	run := func(opts Options) [][]byte {
		m, err := NewMachine(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		out := make([][]byte, p)
		if _, err := m.Run(opts, func(pr *Proc) {
			// Every rank exchanges with every other rank (send before
			// receive on both sides), then a barrier, then a ring pass.
			var acc []byte
			for peer := 0; peer < p; peer++ {
				if peer == pr.Rank() {
					continue
				}
				got := comm.Exchange(pr, peer, comm.Message{
					Tag: 1, Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte{byte(pr.Rank())}}},
				})
				acc = append(acc, got.Parts[0].Data...)
			}
			pr.Barrier()
			next, prev := (pr.Rank()+1)%p, (pr.Rank()+p-1)%p
			pr.Send(next, comm.Message{Tag: 2, Parts: []comm.Part{{Origin: pr.Rank(), Data: acc}}})
			m := pr.Recv(prev)
			out[pr.Rank()] = append([]byte(nil), m.Parts[0].Data...)
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(Options{})
	batched := run(Options{FlushThreshold: 512})
	for r := range plain {
		if !bytes.Equal(plain[r], batched[r]) {
			t.Errorf("rank %d: batched run delivered %v, unbatched %v", r, batched[r], plain[r])
		}
	}
}

// TestMeasureFrameRateModes smoke-tests the figTCPHotpath measurement
// harness: every mode must move its frames and report a positive rate.
func TestMeasureFrameRateModes(t *testing.T) {
	for _, mode := range []string{FrameModeLegacy, FrameModeVectored, FrameModeBatched} {
		rate, err := MeasureFrameRate(mode, 64, 2000, 4096)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rate <= 0 {
			t.Fatalf("%s: non-positive frame rate %v", mode, rate)
		}
	}
	if _, err := MeasureFrameRate("bogus", 64, 10, 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
