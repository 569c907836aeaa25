package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// Inbox is one rank's receive side: per-source message FIFOs and
// barrier-token counters under one lock. Only the owning rank waits on
// it. Every delivery revalidates under the lock that the run it was made
// for is still current, so a message, token or poison from a run that
// has ended can never reach the next one, even when the deliverer was
// descheduled in between.
type Inbox struct {
	mu   sync.Mutex
	cond sync.Cond
	// rank is the owner: boxes[rank] holds self-sends, whose payloads
	// belong to the sender and are never handed to recycle.
	rank    int
	cur     *atomic.Pointer[Run]
	recycle func(comm.Message)
	boxes   []comm.Queue
	tokens  []int
	dead    error // poison: every later wait returns it
	// arrivals mirrors boxes with FIFOs of arrival wall stamps; allocated
	// only on traced runs.
	arrivals []tsQueue
	// timer wakes a timed wait at its deadline. One per inbox, re-armed
	// by every wait that blocks: a stale fire only wakes the owner, which
	// rechecks its own deadline.
	timer *time.Timer
}

func newInbox(rank, size int, cur *atomic.Pointer[Run], recycle func(comm.Message)) *Inbox {
	ib := &Inbox{rank: rank, cur: cur, recycle: recycle, boxes: make([]comm.Queue, size), tokens: make([]int, size)}
	ib.cond.L = &ib.mu
	return ib
}

// reset wipes the previous run's leftovers: queued messages (recycled
// when they came from another rank), tokens, the poison, and the arrival
// stamps.
func (ib *Inbox) reset(traced bool) {
	ib.mu.Lock()
	for i := range ib.boxes {
		if i == ib.rank || ib.recycle == nil {
			ib.boxes[i].Reset()
		} else {
			ib.boxes[i].Drain(ib.recycle)
		}
	}
	for i := range ib.tokens {
		ib.tokens[i] = 0
	}
	ib.dead = nil
	ib.arrivals = nil
	if traced {
		ib.arrivals = make([]tsQueue, len(ib.boxes))
	}
	ib.mu.Unlock()
}

// Push enqueues m from src for run rs, with arrival wall stamp ts (kept
// only on traced runs). It reports false, leaving m to the caller, when
// rs is no longer the current run.
func (ib *Inbox) Push(rs *Run, src int, m comm.Message, ts int64) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.cur.Load() != rs {
		return false
	}
	ib.boxes[src].Push(m)
	if ib.arrivals != nil {
		ib.arrivals[src].push(ts)
	}
	ib.cond.Broadcast()
	return true
}

// PushToken records one barrier token from src for run rs.
func (ib *Inbox) PushToken(rs *Run, src int) {
	ib.mu.Lock()
	if ib.cur.Load() == rs {
		ib.tokens[src]++
		ib.cond.Broadcast()
	}
	ib.mu.Unlock()
}

// Fail poisons the inbox for run rs: the owner's current and later
// waits return err. The first poison wins.
func (ib *Inbox) Fail(rs *Run, err error) {
	ib.mu.Lock()
	if ib.cur.Load() == rs && ib.dead == nil {
		ib.dead = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// pop dequeues the next message from src, returning its arrival stamp
// (0 when untraced) and whether the caller had to block.
func (ib *Inbox) pop(src int, timeout time.Duration) (comm.Message, int64, bool, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	box := &ib.boxes[src]
	waited := box.Len() == 0
	if err := ib.waitLocked(timeout, func() bool { return box.Len() > 0 }); err != nil {
		return comm.Message{}, 0, waited, err
	}
	var ts int64
	if ib.arrivals != nil {
		ts = ib.arrivals[src].pop()
	}
	return box.Pop(), ts, waited, nil
}

// popToken consumes one barrier token from src.
func (ib *Inbox) popToken(src int, timeout time.Duration) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if err := ib.waitLocked(timeout, func() bool { return ib.tokens[src] > 0 }); err != nil {
		return err
	}
	ib.tokens[src]--
	return nil
}

// waitLocked blocks (mu held) until ready, the inbox is poisoned, or a
// positive timeout elapses. It is the one timed wait of the runtime.
func (ib *Inbox) waitLocked(timeout time.Duration, ready func() bool) error {
	var deadline time.Time
	for !ready() {
		if ib.dead != nil {
			return ib.dead
		}
		if timeout > 0 {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(timeout)
				if ib.timer == nil {
					ib.timer = time.AfterFunc(timeout, ib.wake)
				} else {
					ib.timer.Reset(timeout)
				}
			} else if !now.Before(deadline) {
				return fmt.Errorf("blocked %v (receive deadline exceeded)", timeout)
			}
		}
		ib.cond.Wait()
	}
	return nil
}

func (ib *Inbox) wake() {
	ib.mu.Lock()
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// tsQueue is a FIFO of int64 timestamps (traced runs only, so the modest
// garbage of the grown slice is acceptable).
type tsQueue struct {
	buf  []int64
	head int
}

func (q *tsQueue) push(t int64) { q.buf = append(q.buf, t) }

func (q *tsQueue) pop() int64 {
	if q.head >= len(q.buf) {
		return 0
	}
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return t
}
