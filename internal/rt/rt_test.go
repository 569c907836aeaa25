package rt_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/tcp"
)

// machine is what the table needs of an engine's persistent machine.
type machine interface {
	Run(opts rt.Options, fn func(comm.Comm)) (*rt.Result, error)
	Close() error
}

type liveMachine struct{ *live.Machine }

func (m liveMachine) Run(opts rt.Options, fn func(comm.Comm)) (*rt.Result, error) {
	return m.Machine.Run(opts, func(p *live.Proc) { fn(p) })
}

type tcpMachine struct{ *tcp.Machine }

func (m tcpMachine) Run(opts rt.Options, fn func(comm.Comm)) (*rt.Result, error) {
	return m.Machine.Run(tcp.Options{
		Context: opts.Context, RunTimeout: opts.RunTimeout,
		RecvTimeout: opts.RecvTimeout, Tracer: opts.Tracer,
	}, func(p *tcp.Proc) { fn(p) })
}

// engines are the transports every case runs over.
var engines = []struct {
	name string
	open func(p int) (machine, error)
}{
	{"live", func(p int) (machine, error) {
		m, err := live.NewMachine(p)
		if err != nil {
			return nil, err
		}
		return liveMachine{m}, nil
	}},
	{"tcp", func(p int) (machine, error) {
		m, err := tcp.NewMachine(p, tcp.Options{})
		if err != nil {
			return nil, err
		}
		return tcpMachine{m}, nil
	}},
}

// step is one run on a case's machine.
type step struct {
	opts func() (rt.Options, context.CancelFunc)
	body func(c comm.Comm)
	// want lists substrings the run's error must contain; nil means the
	// run must succeed.
	want []string
	// stats, when non-nil, checks every rank's counters of a successful run.
	stats func(rt.ProcStats) error
}

// failureCase is one row of the failure-semantics table: a machine of p
// ranks (p <= 0 must be refused) and the runs made on it. Every failing
// run must return within bound, and the machine's goroutines must all
// exit once it is closed.
type failureCase struct {
	name  string
	p     int
	steps []step
}

const bound = 3 * time.Second

func noOpts() (rt.Options, context.CancelFunc) { return rt.Options{}, func() {} }

func recvTimeout(d time.Duration) func() (rt.Options, context.CancelFunc) {
	return func() (rt.Options, context.CancelFunc) { return rt.Options{RecvTimeout: d}, func() {} }
}

func msg(tag, origin int, data string) comm.Message {
	return comm.Message{Tag: tag, Parts: []comm.Part{{Origin: origin, Data: []byte(data)}}}
}

// ring sends one tagged message around the ring and ends on a barrier.
func ring(tag int) func(comm.Comm) {
	return func(c comm.Comm) {
		p := c.Size()
		c.Send((c.Rank()+1)%p, msg(tag, c.Rank(), "r"))
		if got := c.Recv((c.Rank() + p - 1) % p); got.Tag != tag {
			panic(fmt.Sprintf("rank %d received tag %d, want %d", c.Rank(), got.Tag, tag))
		}
		c.Barrier()
	}
}

// counts checks the per-rank counters of a run.
func counts(sends, barrierSends int) func(rt.ProcStats) error {
	return func(s rt.ProcStats) error {
		if s.Sends != sends || s.Recvs != sends || s.BarrierSends != barrierSends || s.BarrierRecvs != barrierSends {
			return fmt.Errorf("rank %d stats %+v, want %d sends/recvs and %d barrier tokens each way", s.Rank, s, sends, barrierSends)
		}
		return nil
	}
}

func failureCases() []failureCase {
	backToBack := make([]step, 20)
	for r := range backToBack {
		// p=4: one ring message and a two-round barrier per run.
		backToBack[r] = step{opts: recvTimeout(5 * time.Second), body: ring(r), stats: counts(1, 2)}
	}
	return []failureCase{
		{name: "invalid-processor-count", p: 0},
		{name: "single-processor", p: 1, steps: []step{{
			opts: noOpts,
			body: func(c comm.Comm) {
				c.Barrier()
				c.Send(0, msg(0, 0, "self"))
				if got := c.Recv(0); string(got.Parts[0].Data) != "self" {
					panic(fmt.Sprintf("self message corrupted: %q", got.Parts[0].Data))
				}
			},
			stats: counts(1, 0),
		}}},
		{name: "panic-aborts", p: 4, steps: []step{{
			opts: noOpts,
			body: func(c comm.Comm) {
				if c.Rank() == 3 {
					panic("injected fault")
				}
				c.Recv(3) // blocked on the dead rank until the abort unwinds it
			},
			want: []string{"rank 3", "injected fault"},
		}}},
		{name: "panic-in-barrier", p: 4, steps: []step{{
			opts: noOpts,
			body: func(c comm.Comm) {
				if c.Rank() == 0 {
					panic("dead before barrier")
				}
				c.Barrier()
			},
			want: []string{"rank 0", "dead before barrier"},
		}}},
		{name: "abort-unwinds-recv-and-barrier-blocked-peers", p: 6, steps: []step{{
			opts: noOpts,
			body: func(c comm.Comm) {
				switch c.Rank() {
				case 0:
					time.Sleep(20 * time.Millisecond) // let peers block first
					panic("rank 0 died mid-run")
				case 1, 2:
					c.Recv(0)
				default:
					c.Barrier()
				}
			},
			want: []string{"rank 0", "rank 0 died mid-run"},
		}}},
		{name: "recv-deadline-names-rank-and-peer", p: 4, steps: []step{{
			opts: recvTimeout(100 * time.Millisecond),
			body: func(c comm.Comm) {
				if c.Rank() == 1 {
					c.Recv(3) // rank 3 never sends: a dead-peer hang
				}
			},
			want: []string{"rank 1", "recv from 3", "deadline"},
		}}},
		{name: "barrier-deadline", p: 3, steps: []step{{
			opts: recvTimeout(100 * time.Millisecond),
			body: func(c comm.Comm) {
				if c.Rank() != 2 { // rank 2 never enters the barrier
					c.Barrier()
				}
			},
			want: []string{"barrier recv", "deadline"},
		}}},
		{name: "run-timeout", p: 2, steps: []step{{
			opts: func() (rt.Options, context.CancelFunc) {
				return rt.Options{RunTimeout: 100 * time.Millisecond}, func() {}
			},
			body: func(c comm.Comm) { c.Recv(1 - c.Rank()) }, // mutual hang
			want: []string{"run exceeded"},
		}}},
		{name: "context-cancel", p: 2, steps: []step{{
			opts: func() (rt.Options, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				t := time.AfterFunc(50*time.Millisecond, cancel)
				return rt.Options{Context: ctx}, func() { t.Stop(); cancel() }
			},
			body: func(c comm.Comm) { c.Recv(1 - c.Rank()) },
			want: []string{"canceled"},
		}}},
		{name: "healthy-run-with-deadline", p: 4, steps: []step{{
			opts: func() (rt.Options, context.CancelFunc) {
				return rt.Options{RecvTimeout: time.Second, RunTimeout: 30 * time.Second}, func() {}
			},
			body: func(c comm.Comm) {
				for i := 0; i < 20; i++ {
					ring(i)(c)
				}
			},
			stats: counts(20, 40),
		}}},
		{name: "back-to-back-runs", p: 4, steps: backToBack},
		{name: "runs-do-not-bleed-messages", p: 2, steps: []step{
			{
				opts: recvTimeout(5 * time.Second),
				body: func(c comm.Comm) {
					if c.Rank() == 0 {
						c.Send(1, msg(1, 0, "wanted"))
						c.Send(1, msg(2, 0, "orphan"))
					} else {
						c.Recv(0) // consumes "wanted"; "orphan" is left behind
					}
				},
			},
			{
				opts: recvTimeout(200 * time.Millisecond),
				body: func(c comm.Comm) {
					if c.Rank() == 1 {
						panic(fmt.Sprintf("stale message bled into the next run: %v", c.Recv(0)))
					}
				},
				want: []string{"recv from 0", "deadline"},
			},
		}},
		{name: "recovers-after-abort", p: 4, steps: []step{
			{
				opts: recvTimeout(5 * time.Second),
				body: func(c comm.Comm) {
					switch c.Rank() {
					case 0:
						time.Sleep(10 * time.Millisecond)
						panic("rank 0 died")
					case 1:
						c.Recv(0)
					default:
						c.Barrier() // abandoned mid-round
					}
				},
				want: []string{"rank 0 died"},
			},
			{opts: recvTimeout(5 * time.Second), body: ring(1), stats: counts(1, 2)},
			{opts: recvTimeout(5 * time.Second), body: ring(2), stats: counts(1, 2)},
		}},
	}
}

// check runs one case on one engine and reports the first departure
// from the case's expectations.
func check(open func(int) (machine, error), c failureCase) error {
	baseline := runtime.NumGoroutine()
	m, err := open(c.p)
	if c.p <= 0 {
		if err == nil {
			m.Close()
			return fmt.Errorf("machine of %d processors accepted", c.p)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("open: %v", err)
	}
	for i, s := range c.steps {
		opts, cancel := s.opts()
		start := time.Now()
		res, err := m.Run(opts, s.body)
		took := time.Since(start)
		cancel()
		if err := checkStep(s, res, err, took); err != nil {
			m.Close()
			return fmt.Errorf("run %d: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		return fmt.Errorf("close: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines leaked: %d after close, %d before open", runtime.NumGoroutine(), baseline)
		}
	}
	return nil
}

func checkStep(s step, res *rt.Result, err error, took time.Duration) error {
	if s.want == nil {
		if err != nil {
			return fmt.Errorf("healthy run failed: %v", err)
		}
		for _, ps := range res.Procs {
			if s.stats == nil {
				break
			}
			if err := s.stats(ps); err != nil {
				return err
			}
		}
		return nil
	}
	if err == nil {
		return fmt.Errorf("run succeeded, want an error containing %q", s.want)
	}
	for _, w := range s.want {
		if !strings.Contains(err.Error(), w) {
			return fmt.Errorf("error %q does not contain %q", err, w)
		}
	}
	if took > bound {
		return fmt.Errorf("failure took %v to surface, bound %v", took, bound)
	}
	return nil
}

// TestAbortSemantics is the failure-semantics table: it holds both
// engines to one set of abort, deadline and session behaviours, since
// they share one runtime.
func TestAbortSemantics(t *testing.T) {
	for _, c := range failureCases() {
		for _, e := range engines {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				if err := check(e.open, c); err != nil {
					t.Errorf("%s on %s: %v", c.name, e.name, err)
				}
			})
		}
	}
}

// TestRecvTimeoutAddsNoAllocations runs a warm p=2 ping-pong with and
// without a receive deadline: the deadline must not cost allocations per
// operation (each inbox keeps one re-armed timer).
func TestRecvTimeoutAddsNoAllocations(t *testing.T) {
	const roundTrips = 200
	pingPong := func(c comm.Comm) {
		peer := 1 - c.Rank()
		m := msg(0, 0, "ping")
		for i := 0; i < roundTrips; i++ {
			if c.Rank() == 0 {
				c.Send(peer, m)
				c.Recv(peer)
			} else {
				c.Send(peer, c.Recv(peer))
			}
		}
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m, err := e.open(2)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			allocs := func(opts rt.Options) float64 {
				best := -1.0
				for trial := 0; trial < 3; trial++ {
					a := testing.AllocsPerRun(5, func() {
						if _, err := m.Run(opts, pingPong); err != nil {
							t.Fatal(err)
						}
					})
					if best < 0 || a < best {
						best = a
					}
				}
				return best
			}
			without := allocs(rt.Options{})
			with := allocs(rt.Options{RecvTimeout: 10 * time.Second})
			if extra := (with - without) / roundTrips; extra >= 0.5 {
				t.Errorf("%s: RecvTimeout adds %.2f allocations per round trip (%.0f vs %.0f per run)", e.name, extra, with, without)
			}
		})
	}
}
