package live

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
)

// waitGoroutinesSettle asserts the goroutine count returns to near the
// baseline: every processor and watcher goroutine of the run unwound.
func waitGoroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after run: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

func TestPingPongContent(t *testing.T) {
	res, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Tag: 7, Parts: []comm.Part{{Origin: 0, Data: []byte("hello")}}})
			m := p.Recv(1)
			if string(m.Parts[0].Data) != "world" {
				t.Errorf("rank 0 got %q", m.Parts[0].Data)
			}
		} else {
			m := p.Recv(0)
			if m.Tag != 7 || string(m.Parts[0].Data) != "hello" {
				t.Errorf("rank 1 got %v %q", m.Tag, m.Parts[0].Data)
			}
			p.Send(0, comm.Message{Parts: []comm.Part{{Origin: 1, Data: []byte("world")}}})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].Sends != 1 || res.Procs[1].Recvs != 1 {
		t.Fatalf("counts wrong: %+v", res.Procs)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			buf := []byte("original")
			p.Send(1, comm.Message{Parts: []comm.Part{{Data: buf}}})
			copy(buf, "CLOBBER!") // must not affect the in-flight message
		} else {
			m := p.Recv(0)
			if !bytes.Equal(m.Parts[0].Data, []byte("original")) {
				t.Errorf("payload aliased: %q", m.Parts[0].Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendMultiPartOneBacking covers the coalesced copy path: all parts
// of a message share one backing allocation, but each part is sealed with
// a full slice expression so growing one part cannot bleed into the next,
// and length-only parts survive among data parts.
func TestSendMultiPartOneBacking(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, comm.Message{Parts: []comm.Part{
				{Origin: 0, Data: []byte("alpha")},
				{Origin: 7, Size: 128}, // length-only, no bytes
				{Origin: 1, Data: []byte("beta")},
			}})
			return
		}
		m := p.Recv(0)
		if len(m.Parts) != 3 {
			t.Fatalf("got %d parts, want 3", len(m.Parts))
		}
		if string(m.Parts[0].Data) != "alpha" || string(m.Parts[2].Data) != "beta" {
			t.Errorf("payloads corrupted: %q %q", m.Parts[0].Data, m.Parts[2].Data)
		}
		if m.Parts[1].Data != nil || m.Parts[1].Size != 128 {
			t.Errorf("length-only part mangled: %+v", m.Parts[1])
		}
		for i, part := range m.Parts {
			if part.Data != nil && cap(part.Data) != len(part.Data) {
				t.Errorf("part %d not sealed: len %d cap %d", i, len(part.Data), cap(part.Data))
			}
		}
		// Growing part 0 must reallocate, never overwrite part 2's bytes
		// in the shared backing array.
		grown := append(m.Parts[0].Data, []byte("XXXXXXXX")...)
		_ = grown
		if string(m.Parts[2].Data) != "beta" {
			t.Errorf("append through part 0 clobbered part 2: %q", m.Parts[2].Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPairUnderConcurrency(t *testing.T) {
	const n = 200
	_, err := Run(3, func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			for i := 0; i < n; i++ {
				p.Send(2, comm.Message{Tag: i, Parts: []comm.Part{{Origin: p.Rank(), Data: []byte{byte(i)}}}})
			}
		case 2:
			// Interleave receives from both senders; each stream must
			// stay in order.
			for i := 0; i < n; i++ {
				for src := 0; src < 2; src++ {
					m := p.Recv(src)
					if m.Tag != i {
						t.Errorf("stream %d out of order: got %d want %d", src, m.Tag, i)
						return
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	const rounds = 10
	var counter atomic.Int64
	_, err := Run(8, func(p *Proc) {
		for r := 0; r < rounds; r++ {
			counter.Add(1)
			p.Barrier()
			// After each barrier, everyone must observe the full round.
			if got := counter.Load(); got < int64((r+1)*8) {
				t.Errorf("round %d: counter %d < %d after barrier", r, got, (r+1)*8)
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllDelivers(t *testing.T) {
	const p = 16
	_, err := Run(p, func(pr *Proc) {
		for d := 0; d < p; d++ {
			if d == pr.Rank() {
				continue
			}
			pr.Send(d, comm.Message{Parts: []comm.Part{{Origin: pr.Rank(), Data: []byte(fmt.Sprintf("from-%d", pr.Rank()))}}})
		}
		for s := 0; s < p; s++ {
			if s == pr.Rank() {
				continue
			}
			m := pr.Recv(s)
			want := fmt.Sprintf("from-%d", s)
			if string(m.Parts[0].Data) != want {
				t.Errorf("rank %d from %d: %q", pr.Rank(), s, m.Parts[0].Data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicAbortsMachine(t *testing.T) {
	_, err := Run(4, func(p *Proc) {
		if p.Rank() == 3 {
			panic("injected fault")
		}
		// Everyone else blocks on the dead processor; the abort must
		// unwind them instead of hanging the test.
		p.Recv(3)
	})
	if err == nil {
		t.Fatal("fault not reported")
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("root cause lost: %v", err)
	}
}

func TestPanicInBarrierAborts(t *testing.T) {
	_, err := Run(4, func(p *Proc) {
		if p.Rank() == 0 {
			panic("dead before barrier")
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "dead before barrier") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidProcessorCount(t *testing.T) {
	if _, err := Run(0, func(*Proc) {}); err == nil {
		t.Fatal("Run(0) succeeded")
	}
}

func TestSingleProcessor(t *testing.T) {
	res, err := Run(1, func(p *Proc) {
		p.Barrier()
		p.Send(0, comm.Message{Parts: []comm.Part{{Origin: 0, Data: []byte("self")}}})
		m := p.Recv(0)
		if string(m.Parts[0].Data) != "self" {
			t.Errorf("self message corrupted: %q", m.Parts[0].Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].Sends != 1 || res.Procs[0].Recvs != 1 {
		t.Fatalf("self-op counts: %+v", res.Procs[0])
	}
}

// TestAbortUnwindsRecvAndBarrierBlockedPeers is the abort-path matrix of
// the robustness layer: one rank panics mid-run while some peers are
// blocked in Recv and others in Barrier. Every goroutine must unwind and
// the root-cause rank must be the reported error.
func TestAbortUnwindsRecvAndBarrierBlockedPeers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, err := Run(6, func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Give peers time to block before dying.
			time.Sleep(20 * time.Millisecond)
			panic("rank 0 died mid-run")
		case 1, 2:
			p.Recv(0)
		default:
			p.Barrier()
		}
	})
	if err == nil {
		t.Fatal("abort not reported")
	}
	if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 0 died mid-run") {
		t.Fatalf("root cause misattributed: %v", err)
	}
	waitGoroutinesSettle(t, baseline)
}

func TestRecvDeadlineNamesRankAndPeer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err := RunOpts(4, Options{RecvTimeout: 100 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 1 {
			p.Recv(3) // rank 3 never sends: a dead-peer hang
		}
	})
	if err == nil {
		t.Fatal("hang not converted to an error")
	}
	for _, want := range []string{"rank 1", "recv from 3", "deadline"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadline error %q missing %q", err, want)
		}
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("deadline abort took %v", d)
	}
	waitGoroutinesSettle(t, baseline)
}

func TestBarrierStallDeadline(t *testing.T) {
	_, err := RunOpts(3, Options{RecvTimeout: 100 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 2 {
			return // never enters the barrier
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("barrier stall not converted to an error")
	}
	if !strings.Contains(err.Error(), "barrier") || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("barrier stall error: %v", err)
	}
}

// TestDeadlineDoesNotFireOnHealthyRun guards against false positives:
// a run with steady traffic under a short RecvTimeout must succeed.
func TestDeadlineDoesNotFireOnHealthyRun(t *testing.T) {
	const rounds = 20
	_, err := RunOpts(4, Options{RecvTimeout: time.Second, RunTimeout: 30 * time.Second}, func(p *Proc) {
		next, prev := (p.Rank()+1)%4, (p.Rank()+3)%4
		for i := 0; i < rounds; i++ {
			p.Send(next, comm.Message{Tag: i, Parts: []comm.Part{{Origin: p.Rank(), Data: []byte{byte(i)}}}})
			p.Recv(prev)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("healthy run failed under deadlines: %v", err)
	}
}
