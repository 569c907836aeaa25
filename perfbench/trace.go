package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// Outside-in tracing for the traced run only. Three wrappers record
// spans at layer boundaries from the benchmark's own files: an
// Algorithm wrapper (passed in through RunOptions.Algorithm), a comm.Comm
// wrapper around each rank's handle, and an http.Handler middleware
// around the daemon's handler. Spans stay in memory and are written out
// when the run ends; self times are computed from them.

// span is one timed call. Parent is the ID of the span that caused it;
// spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans from any goroutine.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }
func (r *recorder) id() int64  { return r.ids.Add(1) }

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// start opens a span. An empty req makes the span's own ID its request
// ID, for a span that starts a request.
func (r *recorder) start(name string, parent int64, req string) span {
	sp := span{ID: r.id(), Parent: parent, Name: name, Req: req, Rank: -1}
	if req == "" {
		sp.Req = strconv.FormatInt(sp.ID, 10)
	}
	sp.Start = r.now()
	return sp
}

// finish closes sp and records it.
func (r *recorder) finish(sp span) {
	sp.End = r.now()
	r.add(sp)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover (children on parallel ranks
// overlap, so the union is subtracted, not the sum).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], cur), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// tracedAlg wraps a registry algorithm: it forwards Name and the
// collective tag, records one "core.alg" span per rank under the span
// the caller set with within, and hands the algorithm a tracedComm.
type tracedAlg struct {
	inner core.Algorithm
	rec   *recorder
	cur   atomic.Pointer[spanCtx]
}

// spanCtx is the caller's enclosing span, the parent of the rank spans.
type spanCtx struct {
	parent int64
	req    string
}

func newTracedAlg(inner core.Algorithm, rec *recorder) *tracedAlg {
	a := &tracedAlg{inner: inner, rec: rec}
	a.cur.Store(&spanCtx{})
	return a
}

// within sets the enclosing span for the runs that follow.
func (a *tracedAlg) within(parent int64, req string) { a.cur.Store(&spanCtx{parent, req}) }

func (a *tracedAlg) Name() string                { return a.inner.Name() }
func (a *tracedAlg) Collective() core.Collective { return core.CollectiveOf(a.inner) }

func (a *tracedAlg) Run(c comm.Comm, spec core.Spec, mine comm.Message) comm.Message {
	ctx := a.cur.Load()
	tc := &tracedComm{Comm: c, rec: a.rec, self: a.rec.id(), req: ctx.req}
	start := a.rec.now()
	out := a.inner.Run(tc, spec, mine)
	tc.spans = append(tc.spans, span{ID: tc.self, Parent: ctx.parent, Name: "core.alg", Req: ctx.req,
		Rank: c.Rank(), Start: start, End: a.rec.now()})
	a.rec.add(tc.spans...)
	return out
}

// tracedComm times Send, Recv and Barrier on one rank's handle. It is
// used from that rank's goroutine only, so it buffers its spans and
// hands them to the recorder once, when the algorithm returns.
type tracedComm struct {
	comm.Comm
	rec   *recorder
	self  int64 // the rank's core.alg span
	req   string
	spans []span
}

func (t *tracedComm) record(name string, start int64, n int) {
	t.spans = append(t.spans, span{ID: t.rec.id(), Parent: t.self, Name: name, Req: t.req,
		Rank: t.Comm.Rank(), Start: start, End: t.rec.now(), Bytes: n})
}

func (t *tracedComm) Send(dst int, m comm.Message) {
	start := t.rec.now()
	t.Comm.Send(dst, m)
	t.record("comm.send", start, m.Len())
}

func (t *tracedComm) Recv(src int) comm.Message {
	start := t.rec.now()
	m := t.Comm.Recv(src)
	t.record("comm.recv", start, m.Len())
	return m
}

func (t *tracedComm) Barrier() {
	start := t.rec.now()
	t.Comm.Barrier()
	t.record("comm.barrier", start, 0)
}

// The optional engine interfaces are forwarded so a wrapped run behaves
// like an unwrapped one: phase labels reach the engine's tracer, and on
// the simulator combining cost and iteration marks still count.
func (t *tracedComm) BeginPhase(name string) { comm.MarkPhase(t.Comm, name) }
func (t *tracedComm) AdvanceCombine(n int)   { comm.ChargeCombine(t.Comm, n) }
func (t *tracedComm) BeginIter(i int)        { comm.MarkIter(t.Comm, i) }

// traceHTTP wraps the daemon's handler: one "daemon.handler" span per
// request, a child of the client span whose ID the request carries in
// requestIDHeader. A request without that header, from an untraced
// client, passes through unrecorded.
func traceHTTP(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(requestIDHeader)
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(req, 10, 64)
		sp := rec.start("daemon.handler", parent, req)
		h.ServeHTTP(w, r)
		rec.finish(sp)
	})
}
