// Package rt is the runtime shared by the real-byte engines,
// internal/live and internal/tcp. Each engine is a transport: it only
// delivers a message or a barrier token into a peer's inbox. rt owns
// everything else, once:
//
//   - the run lifecycle: a first-cause-wins abort latch, the
//     Context/RunTimeout watcher, rank launch with failure
//     classification, and the per-run ProcStats/Result;
//   - the receive side: per-source inboxes with barrier-token counters,
//     a poison error, run-identity revalidation, optional arrival stamps
//     and one timed wait;
//   - the dissemination barrier, ⌈log2 p⌉ rounds of tokens sent through
//     the transport and metered apart from algorithm traffic;
//   - the per-rank Core implementing comm.Comm with its counters and
//     trace emitters.
//
// # Failure semantics
//
// A run never hangs when a deadline is configured; every failure becomes
// a returned error, and root causes take precedence over unwinds:
//
//   - A rank panics: the run aborts, the transport's abort hook tears its
//     links down, every rank blocked in Recv or Barrier unwinds, and the
//     panicking rank is reported as the root cause.
//   - A blocking Recv or barrier wait exceeds Options.RecvTimeout: the
//     stalled rank aborts the run with an error naming itself and the
//     peer it waited on.
//   - Options.Context is canceled or Options.RunTimeout elapses: the run
//     aborts and every blocked rank reports the cancellation cause.
//   - A transport failure (tcp: a broken connection) poisons the affected
//     inbox, so that receiver reports it as the root cause.
//
// A machine survives a failed run: the next run starts from wiped
// inboxes, zeroed counters and a fresh abort latch, and deliveries made
// for an earlier run are dropped, so nothing leaks from one run into the
// next.
package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options are the per-run fields of a real-byte engine. The zero value
// applies no deadlines and no cancellation.
type Options struct {
	// Context, when non-nil, cancels the run: blocked processors unwind
	// and the run returns an error carrying ctx.Err().
	Context context.Context
	// RunTimeout, when positive, bounds the whole run.
	RunTimeout time.Duration
	// RecvTimeout, when positive, bounds any single blocking Recv or
	// barrier wait; exceeding it aborts the run with an error naming the
	// blocked rank and the peer it waited on.
	RecvTimeout time.Duration
	// Tracer, when non-nil, receives an obs.Event for every send, recv,
	// wait (a receive that had to block) and barrier, stamped with
	// wall-clock nanoseconds since the run started; receives also carry
	// the instant their message reached the inbox (Arrival). Events
	// arrive from all rank goroutines concurrently, so the tracer must be
	// safe for concurrent use (trace.Recorder is). Nil tracing costs one
	// branch per operation.
	Tracer obs.Tracer
}

// ProcStats counts one processor's operations during a run. Sends, Recvs
// and the byte counters cover algorithm traffic only; barrier tokens are
// counted apart.
type ProcStats struct {
	Rank      int
	Sends     int
	Recvs     int
	SendBytes int64
	RecvBytes int64
	// BarrierSends/BarrierRecvs count dissemination-barrier tokens.
	BarrierSends int
	BarrierRecvs int
}

// Result is the outcome of a run.
type Result struct {
	// Elapsed is the wall-clock duration of the run, from launching the
	// ranks to the last rank done; machine setup is excluded. Inboxes
	// are armed before any rank launches, so runs need no start barrier.
	Elapsed time.Duration
	// Procs holds per-processor counts of the machine's local ranks in
	// rank order: every rank, except on a tcp cluster worker, whose
	// machine owns a slice of them (each entry's Rank identifies it).
	Procs []ProcStats
}

// AbortError poisons the inboxes of a failed run. External marks context
// and deadline aborts, which every blocked rank reports as a root cause;
// otherwise the error is an unwind after a failure reported elsewhere.
type AbortError struct {
	Cause    error
	External bool
}

func (e *AbortError) Error() string { return e.Cause.Error() }
func (e *AbortError) Unwrap() error { return e.Cause }

// Run is the state of one run: its identity, tracer, context, clock
// zero and abort latch.
type Run struct {
	// Epoch is the transport's number for the run (tcp stamps it on every
	// frame so stale frames can be told apart).
	Epoch uint32
	// Tracer is the run's tracer, nil when untraced.
	Tracer obs.Tracer
	// Ctx is the run's context, nil when it has none. Transports bound
	// work a send starts by it (tcp's lazy dials).
	Ctx     context.Context
	start   time.Time
	aborted atomic.Bool
}

// Wall returns nanoseconds since the run started.
func (r *Run) Wall() int64 { return time.Since(r.start).Nanoseconds() }

// WallIfTraced returns Wall on traced runs and 0 otherwise, so untraced
// hot paths skip the clock read.
func (r *Run) WallIfTraced() int64 {
	if r.Tracer == nil {
		return 0
	}
	return r.Wall()
}

// Aborted reports whether the run has failed.
func (r *Run) Aborted() bool { return r.aborted.Load() }

// Runtime is the transport-independent half of a machine: the cores of
// its local ranks [lo,hi) and the run in flight. The transport's machine
// serializes runs; they never overlap.
type Runtime struct {
	name    string
	size    int
	lo, hi  int
	cores   []*Core // indexed by rank; nil outside [lo,hi)
	cur     atomic.Pointer[Run]
	onAbort func()
}

// New builds the runtime of a size-rank machine whose local ranks are
// [lo,hi). name ("live", "tcp") prefixes every error. onAbort, when
// non-nil, is the transport's abort hook: it runs once per failed run,
// before the inboxes are poisoned, and must unblock whatever the
// transport itself blocks in (tcp closes its connections).
func New(name string, size, lo, hi int, onAbort func()) (*Runtime, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%s: non-positive processor count %d", name, size)
	}
	return &Runtime{name: name, size: size, lo: lo, hi: hi, cores: make([]*Core, size), onAbort: onAbort}, nil
}

// Current returns the run in flight, or nil between runs.
func (r *Runtime) Current() *Run { return r.cur.Load() }

// Inbox returns the inbox of local rank.
func (r *Runtime) Inbox(rank int) *Inbox { return r.cores[rank].in }

// Abort fails run rs: the first abort of a run wins, calls the transport
// hook and poisons every local inbox with reason. The poison of a run
// that is no longer current reaches no inbox.
func (r *Runtime) Abort(rs *Run, reason *AbortError) {
	if rs.aborted.Swap(true) {
		return
	}
	if r.onAbort != nil {
		r.onAbort()
	}
	for _, c := range r.cores[r.lo:r.hi] {
		c.in.Fail(rs, reason)
	}
}

// Exec executes one run: body(rank) on one goroutine per local rank,
// under opts, with epoch as the run's number. gate, when non-nil, is
// called once the inboxes are armed but before any rank starts; its
// error aborts the run. A panic in body fails the run as the package
// comment describes.
func (r *Runtime) Exec(opts Options, epoch uint32, gate func() error, body func(rank int)) (*Result, error) {
	rs := &Run{Epoch: epoch, Tracer: opts.Tracer, Ctx: opts.Context}
	local := r.cores[r.lo:r.hi]
	for _, c := range local {
		c.begin(rs, opts.RecvTimeout)
	}
	rs.start = time.Now()
	r.cur.Store(rs)
	stop := r.watch(rs, opts)
	defer stop()
	if gate != nil {
		if err := gate(); err != nil {
			r.Abort(rs, &AbortError{Cause: fmt.Errorf("run start aborted: %w", err), External: true})
			r.cur.Store(nil)
			return nil, fmt.Errorf("%s: run start aborted: %w", r.name, err)
		}
	}
	roots := make([]error, len(local))
	unwinds := make([]error, len(local))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range local {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				err, ok := v.(error)
				if !ok {
					err = fmt.Errorf("%v", v)
				}
				var ab *AbortError
				if errors.As(err, &ab) && !ab.External {
					unwinds[i] = fmt.Errorf("%s: rank %d unwound: %w", r.name, c.rank, err)
					return
				}
				roots[i] = fmt.Errorf("%s: rank %d: %w", r.name, c.rank, err)
				r.Abort(rs, &AbortError{Cause: fmt.Errorf("machine aborted by rank %d", c.rank)})
			}()
			body(c.rank)
		}()
	}
	wg.Wait()
	// Deliveries for this run stop here; late ones are dropped.
	r.cur.Store(nil)
	res := &Result{Elapsed: time.Since(start), Procs: make([]ProcStats, len(local))}
	for i, c := range local {
		res.Procs[i] = c.stats
	}
	for _, errs := range [][]error{roots, unwinds} {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// watch starts the run's external abort sources, context cancellation
// and the whole-run deadline, and returns the function that stops them
// and waits for the watcher to exit.
func (r *Runtime) watch(rs *Run, opts Options) (stop func()) {
	var ctxDone <-chan struct{}
	if opts.Context != nil {
		ctxDone = opts.Context.Done()
	}
	var timer *time.Timer
	var timeout <-chan time.Time
	if opts.RunTimeout > 0 {
		timer = time.NewTimer(opts.RunTimeout)
		timeout = timer.C
	}
	if ctxDone == nil && timeout == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctxDone:
			r.Abort(rs, &AbortError{Cause: fmt.Errorf("run canceled: %w", opts.Context.Err()), External: true})
		case <-timeout:
			r.Abort(rs, &AbortError{Cause: fmt.Errorf("run exceeded %v deadline", opts.RunTimeout), External: true})
		case <-done:
		}
	}()
	return func() {
		close(done)
		if timer != nil {
			timer.Stop()
		}
		<-exited
	}
}
