package tcp

// The buffer arena behind the frame hot path: sync.Pool-backed storage
// for send-side frame scratch (frame headers, part headers, the small-
// frame copy buffer and the writev gather list) and for receive-side
// payload buffers and part slices. The arena is package-level and shared
// across runs and machines — a sync.Pool already provides per-P caching
// and GC-driven draining, so one pool per size class is the whole policy.
//
// Ownership discipline (the part that keeps pooling safe):
//
//   - Send side: a frameScratch is only ever held across one writeFrameTo
//     call under the per-destination write lock, so nothing it references
//     outlives the write. putScratch drops payload references before the
//     scratch re-enters the pool.
//   - Receive side: the reader pumps decode every frame into arena
//     buffers, then hand ownership into the inbox's comm.Queue. A frame
//     that is DELIVERED to algorithm code leaves the arena for good — the
//     consumer owns the payload (result bundles keep it), the queue's
//     slot-zeroing drops the queue's reference, and the GC reclaims it
//     when the consumer drops it. Only frames that are never delivered —
//     stale-epoch drops in the pumps, mailbox leftovers wiped by the
//     between-runs reset — are recycled back into the arena, which is
//     what keeps chaos runs and aborted epochs from churning the heap.
//     Self-sends are never recycled: their payloads are caller-owned.

import (
	"net"
	"sync"

	"repro/internal/comm"
)

const (
	frameHdrLen = 12
	partHdrLen  = 8

	// payloadMinShift..payloadMaxShift bound the pooled payload size
	// classes (64 B .. 1 MiB, powers of two). Larger payloads are plain
	// allocations: they are rare, and parking multi-megabyte buffers in
	// a pool pins memory for no measured win.
	payloadMinShift = 6
	payloadMaxShift = 20

	// partsMaxShift bounds the pooled part-slice capacity classes
	// (1 .. 1024 parts). A frame can carry up to maxParts parts, but
	// bundles that large are read-side rarities; they fall back to make.
	partsMaxShift = 10
)

// frameScratch is the send-side working set of one frame write: a
// contiguous encode buffer for small frames and batches, the header
// bytes backing a gather list, and the gather list itself. It cycles
// through scratchPool once per frame write.
type frameScratch struct {
	flat []byte      // contiguous encoding of a small frame
	hdr  []byte      // frame + part header bytes backing bufs
	bufs net.Buffers // gather list: hdr, then (part hdr, payload) pairs
	// vec is the consumable view handed to net.Buffers.WriteTo, which
	// advances and mutates it in place. It shares bufs's backing array;
	// keeping it a field (instead of a local) stops the slice header
	// from escaping to the heap on every vectored write.
	vec net.Buffers
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

func getScratch() *frameScratch { return scratchPool.Get().(*frameScratch) }

func putScratch(sc *frameScratch) {
	// Drop payload references so a pooled scratch never retains message
	// bytes (the flat and hdr buffers hold only our own header/copy
	// storage and are kept for reuse).
	for i := range sc.bufs {
		sc.bufs[i] = nil
	}
	sc.bufs = sc.bufs[:0]
	sc.vec = nil
	scratchPool.Put(sc)
}

// payloadPools[i] holds *[]byte buffers of capacity 1<<(payloadMinShift+i).
var payloadPools [payloadMaxShift - payloadMinShift + 1]sync.Pool

// payloadBoxes and partsBoxes recycle the empty *[]byte / *[]comm.Part
// boxes the size-class pools store their slices in: a get empties its
// box into these, a put refills one from them, so the recycle path
// allocates nothing once the boxes exist.
var payloadBoxes, partsBoxes sync.Pool

// payloadClass returns the pool index for a payload of n bytes, or -1
// when n is outside the pooled classes.
func payloadClass(n int) int {
	if n > 1<<payloadMaxShift {
		return -1
	}
	c := 0
	for 1<<(payloadMinShift+c) < n {
		c++
	}
	return c
}

// sharedEmpty keeps zero-length parts non-nil (Part.Len distinguishes
// nil Data from empty) without allocating.
var sharedEmpty = make([]byte, 0)

// getPayload returns an arena buffer of length n.
func getPayload(n int) []byte {
	if n == 0 {
		return sharedEmpty
	}
	c := payloadClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if bp, ok := payloadPools[c].Get().(*[]byte); ok {
		b := (*bp)[:n]
		*bp = nil
		payloadBoxes.Put(bp)
		return b
	}
	return make([]byte, n, 1<<(payloadMinShift+c))
}

// putPayload returns a buffer to its size class. Buffers of unpooled
// sizes (including resliced ones that no longer match a class) are left
// to the GC.
func putPayload(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	cl := payloadClass(c)
	if cl < 0 || 1<<(payloadMinShift+cl) != c {
		return
	}
	bp, _ := payloadBoxes.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b[:0]
	payloadPools[cl].Put(bp)
}

// partsPools[i] holds *[]comm.Part slices of capacity 1<<i.
var partsPools [partsMaxShift + 1]sync.Pool

func partsClass(n int) int {
	if n > 1<<partsMaxShift {
		return -1
	}
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// getParts returns an empty part slice with room for n parts (more may
// be appended; growth is a plain allocation). n == 0 returns nil — a
// barrier frame carries no parts.
func getParts(n int) []comm.Part {
	if n == 0 {
		return nil
	}
	c := partsClass(n)
	if c < 0 {
		// Unpooled: cap the eager allocation; the decode loop appends as
		// bytes actually arrive, so a lying header cannot force a huge
		// up-front slice.
		if n > 1<<partsMaxShift {
			n = 1 << partsMaxShift
		}
		return make([]comm.Part, 0, n)
	}
	if sp, ok := partsPools[c].Get().(*[]comm.Part); ok {
		ps := (*sp)[:0]
		*sp = nil
		partsBoxes.Put(sp)
		return ps
	}
	return make([]comm.Part, 0, 1<<c)
}

func putParts(s []comm.Part) {
	c := cap(s)
	if c == 0 {
		return
	}
	cl := partsClass(c)
	if cl < 0 || 1<<cl != c {
		return
	}
	// Zero the occupied slots so pooled slices never retain payloads.
	s = s[:cap(s)]
	for i := range s {
		s[i] = comm.Part{}
	}
	sp, _ := partsBoxes.Get().(*[]comm.Part)
	if sp == nil {
		sp = new([]comm.Part)
	}
	*sp = s[:0]
	partsPools[cl].Put(sp)
}

// recycleMessage returns a pump-decoded message's arena storage (payload
// buffers and part slice) to the pools. It must only be called for
// messages that were never delivered to algorithm code: stale-epoch
// drops and between-runs mailbox leftovers. Messages that came from
// Send (self-sends) are caller-owned and must never pass through here.
func recycleMessage(m comm.Message) {
	for _, p := range m.Parts {
		if len(p.Data) > 0 {
			putPayload(p.Data)
		}
	}
	putParts(m.Parts)
}
