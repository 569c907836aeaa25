// Package live is the in-memory transport of the real-byte runtime
// (internal/rt): one goroutine per processor, and every message copied
// on send straight into the peer's inbox. It is the functional-
// correctness twin of internal/sim — the same algorithm code runs on
// both — and reports wall-clock time and operation counts instead of
// virtual timing.
//
// Copying on send means a sender mutating its buffer after Send cannot
// corrupt a message in flight, matching the buffered semantics of NX
// csend that the algorithms assume. Barrier tokens go through the same
// inboxes, so Barrier is rt's dissemination barrier, metered in
// ProcStats.BarrierSends/BarrierRecvs like tcp's.
package live

import (
	"errors"
	"sync"

	"repro/internal/comm"
	"repro/internal/rt"
)

// Options are the run options (see rt.Options).
type Options = rt.Options

// ProcStats counts one processor's operations during a run.
type ProcStats = rt.ProcStats

// Result is the outcome of a live run.
type Result = rt.Result

// Proc is one live processor's handle: the runtime core, implementing
// comm.Comm, comm.IterMarker and comm.PhaseMarker.
type Proc = rt.Core

// port is one rank's in-memory transport.
type port struct {
	r    *rt.Runtime
	rank int
}

// Send copies every part's payload into one backing allocation and
// delivers the copy, so the caller may reuse its buffers immediately.
func (p port) Send(dst int, m comm.Message) {
	cp := comm.Message{Tag: m.Tag, Parts: make([]comm.Part, len(m.Parts))}
	var total int
	for _, part := range m.Parts {
		total += len(part.Data)
	}
	var backing []byte
	if total > 0 {
		backing = make([]byte, 0, total)
	}
	for i, part := range m.Parts {
		if part.Data == nil {
			// Length-only part (simulator path): preserve the declared size.
			cp.Parts[i] = comm.Part{Origin: part.Origin, Size: part.Size}
			continue
		}
		// A full slice expression seals each part, so appends through
		// one part cannot bleed into the next.
		start := len(backing)
		backing = append(backing, part.Data...)
		cp.Parts[i] = comm.Part{Origin: part.Origin, Data: backing[start:len(backing):len(backing)]}
	}
	rs := p.r.Current()
	p.r.Inbox(dst).Push(rs, p.rank, cp, rs.WallIfTraced())
}

func (p port) SendToken(dst int) { p.r.Inbox(dst).PushToken(p.r.Current(), p.rank) }

func (port) Flush() {}

// Machine is a persistent live machine: the inboxes are built once by
// NewMachine and reused by every Run. Run and Close serialize; a Machine
// supports one run at a time.
type Machine struct {
	mu     sync.Mutex // serializes Run and Close
	r      *rt.Runtime
	procs  []*Proc
	closed bool
}

// NewMachine builds the inboxes for p processors. The caller owns the
// machine and should Close it when done.
func NewMachine(p int) (*Machine, error) {
	r, err := rt.New("live", p, 0, p, nil)
	if err != nil {
		return nil, err
	}
	mc := &Machine{r: r, procs: make([]*Proc, p)}
	for i := range mc.procs {
		mc.procs[i] = r.NewCore(i, port{r: r, rank: i}, nil)
	}
	return mc, nil
}

// Size returns the processor count the machine was built for.
func (mc *Machine) Size() int { return len(mc.procs) }

// Close releases the machine. It is idempotent; a run must not be in
// flight.
func (mc *Machine) Close() error {
	mc.mu.Lock()
	mc.closed = true
	mc.mu.Unlock()
	return nil
}

// Run executes fn on every processor over the warm inboxes; opts is
// consumed afresh on every call. An aborted run leaves the machine
// usable.
func (mc *Machine) Run(opts Options, fn func(*Proc)) (*Result, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		return nil, errors.New("live: Run on closed machine")
	}
	return mc.r.Exec(opts, 0, nil, func(rank int) { fn(mc.procs[rank]) })
}

// Run executes fn concurrently on p processors with no deadlines and
// returns operation counts; see RunOpts.
func Run(p int, fn func(*Proc)) (*Result, error) {
	return RunOpts(p, Options{}, fn)
}

// RunOpts is the one-shot open-run-close wrapper over
// NewMachine/Machine.Run/Machine.Close.
func RunOpts(p int, opts Options, fn func(*Proc)) (*Result, error) {
	mc, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	return mc.Run(opts, fn)
}
