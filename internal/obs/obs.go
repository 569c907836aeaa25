// Package obs defines the engine-agnostic observability event model: one
// Event type shared by every execution engine (internal/sim, internal/live,
// internal/tcp) and by the fault injector (internal/faults), so a single
// recorded stream can interleave algorithm traffic, engine waits and
// injected chaos. internal/trace records streams and exports them (JSON
// lines, Chrome trace format).
//
// Timestamps come in two clocks. The simulator stamps Clock/Arrival/Dur in
// virtual nanoseconds (network.Time); the real-byte engines stamp Wall/Dur
// in wall-clock nanoseconds since the run started. An event stream uses one
// clock or the other — consumers pick the wall clock whenever any event
// carries it (see HasWall).
//
// Every field is cheap plain data: emitting an Event allocates nothing, and
// engines only construct one after a nil check on their Tracer, so tracing
// disabled costs a single predictable branch per operation.
package obs

import "repro/internal/network"

// Event kinds. Send/Recv/Barrier/Combine mirror the comm.Comm operations;
// Wait is the blocked portion of a receive (the paper's wait parameter);
// Fault marks an injected fault from internal/faults.
const (
	KindSend    = "send"
	KindRecv    = "recv"
	KindWait    = "wait"
	KindBarrier = "barrier"
	KindCombine = "combine"
	KindFault   = "fault"
)

// Event is a single engine occurrence.
type Event struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Rank is the processor the event happened on (for link faults, the
	// sending rank).
	Rank int `json:"rank"`
	// Peer is the other end of the operation: destination for sends and
	// link faults, source for receives and waits; -1 when there is none
	// (barrier, combine, kill).
	Peer int `json:"peer"`
	// Bytes is the payload length moved or combined.
	Bytes int `json:"bytes,omitempty"`
	// Parts is the number of bundled original messages.
	Parts int `json:"parts,omitempty"`
	// Tag is the message tag (sends and receives).
	Tag int `json:"tag,omitempty"`
	// Seq is the 0-based message index on the (Rank, Peer) link, stamped
	// on fault events so a fault can be matched to the send it hit.
	Seq int `json:"seq,omitempty"`
	// Clock is the virtual time at which the operation completed
	// (simulator only).
	Clock network.Time `json:"clock,omitempty"`
	// Arrival is the instant the received message arrived, in the
	// event's clock: virtual on the simulator, wall-clock nanoseconds
	// since the run started on the live and tcp engines (receives and
	// waits only).
	Arrival network.Time `json:"arrival,omitempty"`
	// Wall is the wall-clock time at which the operation completed, in
	// nanoseconds since the run started (live and tcp engines, faults).
	Wall int64 `json:"wall,omitempty"`
	// Dur is how long the operation took, in the event's clock (virtual
	// for the simulator, wall for the real-byte engines): the send or
	// receive processing cost, the blocked time of a wait, the injected
	// latency of a delay fault.
	Dur network.Time `json:"dur,omitempty"`
	// Iter is the algorithm iteration the event belongs to (-1 before the
	// first BeginIter).
	Iter int `json:"iter"`
	// Phase is the algorithm-stamped phase label (comm.MarkPhase), empty
	// when the algorithm does not stamp phases.
	Phase string `json:"phase,omitempty"`
	// Fault is the injected fault kind ("drop", "delay", "duplicate",
	// "corrupt", "kill") for Kind == KindFault.
	Fault string `json:"fault,omitempty"`
}

// Tracer observes events. Simulator tracers run inline under the scheduler
// token and need no locking; tracers attached to the live or tcp engine (or
// the fault injector) are called from many goroutines concurrently and must
// be safe for concurrent use — trace.Recorder is.
type Tracer interface {
	Trace(Event)
}

// HasWall reports whether the stream carries wall-clock timestamps (a
// live/tcp run) rather than virtual ones (a simulated run).
func HasWall(events []Event) bool {
	for _, e := range events {
		if e.Wall > 0 {
			return true
		}
	}
	return false
}

// End returns the event's completion timestamp in its native clock.
func (e Event) End(wall bool) network.Time {
	if wall {
		return network.Time(e.Wall)
	}
	return e.Clock
}

// Start returns the event's begin timestamp in its native clock (End minus
// the duration, floored at zero).
func (e Event) Start(wall bool) network.Time {
	t := e.End(wall) - e.Dur
	if t < 0 {
		return 0
	}
	return t
}
