package rt

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/network"
	"repro/internal/obs"
)

// Transport is one rank's delivery path: the only part of a real-byte
// engine that differs between live and tcp. Core calls it from the
// rank's goroutine.
type Transport interface {
	// Send delivers m to dst's inbox; dst may be the rank itself.
	Send(dst int, m comm.Message)
	// SendToken delivers one barrier token to dst, never the rank itself.
	SendToken(dst int)
	// Flush pushes out whatever the transport buffered. Core calls it
	// before every blocking wait, so a rank never waits while holding
	// bytes a peer needs to make progress.
	Flush()
}

// Core is one rank's runtime half. It implements comm.Comm,
// comm.IterMarker and comm.PhaseMarker over a Transport: the transport
// delivers, Core keeps the counters and emits the trace events. Methods
// must only be called from the rank's goroutine during a run.
type Core struct {
	r           *Runtime
	rank        int
	in          *Inbox
	t           Transport
	run         *Run
	recvTimeout time.Duration
	iter        int
	phase       string
	stats       ProcStats
}

var _ comm.Comm = (*Core)(nil)
var _ comm.IterMarker = (*Core)(nil)
var _ comm.PhaseMarker = (*Core)(nil)

// NewCore builds the core of local rank over transport t. recycle, when
// non-nil, receives every message from another rank still queued when
// the inbox is wiped between runs (tcp returns those frames to its
// buffer arena).
func (r *Runtime) NewCore(rank int, t Transport, recycle func(comm.Message)) *Core {
	c := &Core{r: r, rank: rank, t: t, in: newInbox(rank, r.size, &r.cur, recycle), iter: -1}
	r.cores[rank] = c
	return c
}

// begin arms the core for run rs.
func (c *Core) begin(rs *Run, recvTimeout time.Duration) {
	c.in.reset(rs.Tracer != nil)
	c.run, c.recvTimeout = rs, recvTimeout
	c.iter, c.phase = -1, ""
	c.stats = ProcStats{Rank: c.rank}
}

// Current returns the run the core is executing.
func (c *Core) Current() *Run { return c.run }

// Rank implements comm.Comm.
func (c *Core) Rank() int { return c.rank }

// Size implements comm.Comm.
func (c *Core) Size() int { return c.r.size }

// BeginIter implements comm.IterMarker: traced events carry the iteration.
func (c *Core) BeginIter(i int) { c.iter = i }

// BeginPhase implements comm.PhaseMarker: traced events carry the label.
func (c *Core) BeginPhase(name string) { c.phase = name }

// Send implements comm.Comm.
func (c *Core) Send(dst int, m comm.Message) {
	if dst < 0 || dst >= c.r.size {
		panic(fmt.Sprintf("%s: rank %d sends to invalid rank %d", c.r.name, c.rank, dst))
	}
	t0 := c.clock()
	c.t.Send(dst, m)
	n := m.Len()
	c.stats.Sends++
	c.stats.SendBytes += int64(n)
	if c.run.Tracer != nil {
		e := c.event(obs.KindSend, dst, t0)
		e.Bytes, e.Parts, e.Tag = n, len(m.Parts), m.Tag
		c.run.Tracer.Trace(e)
	}
}

// Recv implements comm.Comm. With Options.RecvTimeout set, a wait past
// the timeout fails the run with an error naming this rank and src.
func (c *Core) Recv(src int) comm.Message {
	if src < 0 || src >= c.r.size {
		panic(fmt.Sprintf("%s: rank %d receives from invalid rank %d", c.r.name, c.rank, src))
	}
	c.t.Flush()
	t0 := c.clock()
	m, arrival, waited, err := c.in.pop(src, c.recvTimeout)
	if err != nil {
		panic(fmt.Errorf("recv from %d: %w", src, err))
	}
	n := m.Len()
	c.stats.Recvs++
	c.stats.RecvBytes += int64(n)
	if c.run.Tracer != nil {
		e := c.event(obs.KindWait, src, t0)
		e.Arrival = network.Time(arrival)
		if waited {
			c.run.Tracer.Trace(e)
			e.Dur = 0 // the blocked span is the wait slice, not the recv
		}
		e.Kind, e.Bytes, e.Parts, e.Tag = obs.KindRecv, n, len(m.Parts), m.Tag
		c.run.Tracer.Trace(e)
	}
	return m
}

// Barrier implements comm.Comm as a dissemination barrier: ⌈log2 p⌉
// rounds, each sending one token to rank+k and awaiting one from rank−k.
// Tokens bypass the Send/Recv counters and are metered in
// ProcStats.BarrierSends/BarrierRecvs.
func (c *Core) Barrier() {
	t0 := c.clock()
	p := c.r.size
	for k := 1; k < p; k <<= 1 {
		dst, src := (c.rank+k)%p, (c.rank-k+p)%p
		c.stats.BarrierSends++
		c.t.SendToken(dst)
		c.t.Flush() // our token must be on its way before we wait
		if err := c.in.popToken(src, c.recvTimeout); err != nil {
			panic(fmt.Errorf("barrier recv from %d: %w", src, err))
		}
		c.stats.BarrierRecvs++
	}
	if c.run.Tracer != nil {
		c.run.Tracer.Trace(c.event(obs.KindBarrier, -1, t0))
	}
}

// clock returns the start instant of a traced operation; untraced runs
// skip the clock read.
func (c *Core) clock() time.Time {
	if c.run.Tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// event builds a trace event of kind on this rank, completed now and
// begun at t0.
func (c *Core) event(kind string, peer int, t0 time.Time) obs.Event {
	return obs.Event{
		Kind: kind, Rank: c.rank, Peer: peer, Wall: c.run.Wall(),
		Dur: network.Time(time.Since(t0).Nanoseconds()), Iter: c.iter, Phase: c.phase,
	}
}
