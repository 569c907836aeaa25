package core

import "repro/internal/comm"

// The paper times every algorithm from a synchronized start. That
// barrier belongs to the measurement, not to the schedule, so algorithm
// bodies do not contain it: the simulator adds it through RunSynced,
// while the real-byte engines call Run directly — their inboxes are
// armed before any rank launches (clusters also pass the StartGate),
// and per-run epochs drop stale frames.

// StartSyncer is an Algorithm that reports whether a run on spec starts
// from the barrier. Algorithms that do not implement it always do.
type StartSyncer interface {
	Algorithm
	SyncedStart(spec Spec) bool
}

// SyncedStart reports whether a's run on spec starts from the barrier:
// its StartSyncer answer, or true.
func SyncedStart(a Algorithm, spec Spec) bool {
	if s, ok := a.(StartSyncer); ok {
		return s.SyncedStart(spec)
	}
	return true
}

// RunSynced runs a from the synchronized start: a barrier unless a
// starts unsynchronized on spec, then a.Run. Every simulator call site
// that times an algorithm goes through it, and so does every wrapper
// that communicates before its inner algorithm, so the inner starts
// from a synchronized phase on every engine.
func RunSynced(c comm.Comm, a Algorithm, spec Spec, mine comm.Message) comm.Message {
	if SyncedStart(a, spec) {
		c.Barrier()
	}
	return a.Run(c, spec, mine)
}
