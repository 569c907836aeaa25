package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	stpbcast "repro"
	"repro/internal/daemon"
)

// svc-small sends the ROADMAP anchor request: TCP engine, Paragon 4×4,
// Broadcast, algorithm Auto (the daemon's default), distribution E,
// s=4, L=1 KiB. The input is fixed by that configuration; the seed only
// drives the payload of the byte-verified reference run.
var svcRequest = daemon.BroadcastRequest{
	Engine: "tcp", Topology: "paragon", Rows: 4, Cols: 4,
	Collective: "Broadcast", Algorithm: stpbcast.AutoAlgorithm,
	Distribution: "E", Sources: 4, MsgBytes: 1 << 10,
}

// svcKey is the pool key svcRequest maps onto.
const svcKey = "tcp/paragon/4x4"

// svcClients is the closed-loop client count: nproc is 2, so two clients
// keep both cores busy without oversubscribing them.
const svcClients = 2

// requestIDHeader carries the client's span ID, joining the client and
// handler spans of one request in traced runs.
const requestIDHeader = "X-Request-Id"

// svcConfig is svcRequest as a facade Config.
func svcConfig() stpbcast.Config {
	return stpbcast.Config{
		Collective: stpbcast.CollectiveBroadcast, Algorithm: svcRequest.Algorithm,
		Distribution: svcRequest.Distribution, Sources: svcRequest.Sources, MsgBytes: svcRequest.MsgBytes,
	}
}

// svcSources returns the source ranks of svcRequest.
func svcSources() ([]int, error) {
	d, err := stpbcast.DistributionByName(svcRequest.Distribution)
	if err != nil {
		return nil, err
	}
	return d.Sources(svcRequest.Rows, svcRequest.Cols, svcRequest.Sources)
}

// svcReference runs svcConfig once on the live engine with seeded
// payloads, verifies every bundle byte-exactly and returns the bytes the
// run sent: the per-run quantity the daemon session's counter must be a
// multiple of.
func svcReference(seed int64) (int64, error) {
	m := stpbcast.NewParagon(svcRequest.Rows, svcRequest.Cols)
	s, err := stpbcast.Open(m, stpbcast.EngineLive, stpbcast.SessionOptions{})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	pl := seededPayloads(rand.New(rand.NewSource(seed)), m.P(), svcRequest.MsgBytes)
	res, err := s.Run(svcConfig(), stpbcast.RunOptions{Payload: func(r int) []byte { return pl[r] }})
	if err != nil {
		return 0, err
	}
	src, err := svcSources()
	if err != nil {
		return 0, err
	}
	if err := checkBroadcast(res.Bundles, src, pl); err != nil {
		return 0, err
	}
	return s.Stats().Bytes, nil
}

// svcServer is an in-process daemon with default options on a loopback
// listener.
type svcServer struct {
	d    *daemon.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon serves daemon.New(default options); wrap, when non-nil,
// wraps its handler (the traced run's middleware).
func startDaemon(wrap func(http.Handler) http.Handler) (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := daemon.New(daemon.Options{})
	h := d.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &svcServer{d: d, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and open connections, waits for Serve to
// return, then closes the session pool.
func (s *svcServer) close() {
	s.hs.Close()
	<-s.done
	s.d.Close()
}

// sessionBytes reads the svcKey session's runs, failures and bytes from
// GET /v1/sessions.
func (s *svcServer) sessionBytes() (daemon.SessionInfo, error) {
	resp, err := http.Get(s.url + "/v1/sessions")
	if err != nil {
		return daemon.SessionInfo{}, err
	}
	defer resp.Body.Close()
	var sr daemon.SessionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return daemon.SessionInfo{}, fmt.Errorf("decode /v1/sessions: %w", err)
	}
	for _, si := range sr.Sessions {
		if si.Key == svcKey {
			return si, nil
		}
	}
	return daemon.SessionInfo{}, fmt.Errorf("no %s session in /v1/sessions", svcKey)
}

// svcClient is one keep-alive HTTP client posting svcRequest.
type svcClient struct {
	hc   *http.Client
	tr   *http.Transport
	url  string
	body []byte
}

func newSvcClient(url string) (*svcClient, error) {
	body, err := json.Marshal(svcRequest)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &svcClient{hc: &http.Client{Transport: tr}, tr: tr, url: url + "/v1/broadcast", body: body}, nil
}

// post sends one request and returns its round-trip time and the
// decoded reply. rec, when non-nil, records the request as an
// "http.post" span whose ID it sends in requestIDHeader and returns.
func (c *svcClient) post(rec *recorder) (time.Duration, *daemon.BroadcastResponse, int64, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if rec != nil {
		sp = rec.start("http.post", 0, "")
		req.Header.Set(requestIDHeader, sp.Req)
		defer rec.finish(sp)
	}
	rt, br, err := c.do(req)
	return rt, br, sp.ID, err
}

// do sends req and decodes and checks the reply.
func (c *svcClient) do(req *http.Request) (time.Duration, *daemon.BroadcastResponse, error) {
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t)
	if err != nil {
		return rt, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return rt, nil, fmt.Errorf("svc-small: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var br daemon.BroadcastResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return rt, nil, fmt.Errorf("svc-small: decode reply: %w", err)
	}
	if br.Key != svcKey || br.Failures != 0 || br.Bytes <= 0 {
		return rt, nil, fmt.Errorf("svc-small: reply key %s failures %d bytes %d", br.Key, br.Failures, br.Bytes)
	}
	return rt, &br, nil
}

// svcLoad is the outcome of a closed-loop burst.
type svcLoad struct {
	lat      []float64 // round trips of successful requests, ms
	ok, bad  int
	firstErr error
	elapsed  time.Duration
}

// closedLoop runs the clients back to back for window; rec, when
// non-nil, traces every request.
func closedLoop(clients []*svcClient, window time.Duration, rec *recorder) svcLoad {
	var mu sync.Mutex
	var out svcLoad
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			var lat []float64
			ok, bad := 0, 0
			var first error
			for time.Now().Before(deadline) {
				rt, _, _, err := c.post(rec)
				if err != nil {
					bad++
					if first == nil {
						first = err
					}
					continue
				}
				ok++
				lat = append(lat, ms(rt))
			}
			mu.Lock()
			defer mu.Unlock()
			out.lat = append(out.lat, lat...)
			out.ok += ok
			out.bad += bad
			if out.firstErr == nil {
				out.firstErr = first
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// svcWarmup is the number of sequential requests sent before timing:
// the first opens the mesh and plans, the rest warm the buffer pools.
const svcWarmup = 50

// svcRig is a warm daemon and its svcClients closed-loop clients.
type svcRig struct {
	srv       *svcServer
	clients   []*svcClient
	perRun    int64 // bytes one byte-verified run sends
	completed int
	rep       *report
}

// newSvcRig serves a fresh daemon and warms it up. rec, when non-nil,
// wraps its handler in the tracing middleware, which traces the
// requests that carry a request ID.
func newSvcRig(seed int64, rec *recorder, rep *report) (*svcRig, error) {
	perRun, err := svcReference(seed)
	if err != nil {
		return nil, fmt.Errorf("svc-small reference run: %w", err)
	}
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = func(h http.Handler) http.Handler { return traceHTTP(rec, h) }
	}
	srv, err := startDaemon(wrap)
	if err != nil {
		return nil, err
	}
	g := &svcRig{srv: srv, perRun: perRun, rep: rep}
	for i := 0; i < svcClients; i++ {
		c, err := newSvcClient(srv.url)
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	for i := 0; i < svcWarmup; i++ {
		_, _, _, err := g.clients[i%svcClients].post(nil)
		rep.attempt(err == nil)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("svc-small warm-up: %w", err)
		}
		g.completed++
	}
	return g, nil
}

// load runs the clients closed-loop for window, tracing every request
// when rec is non-nil, and counts the requests.
func (g *svcRig) load(window time.Duration, rec *recorder) svcLoad {
	load := closedLoop(g.clients, window, rec)
	for i := 0; i < load.ok+load.bad; i++ {
		g.rep.attempt(i < load.ok)
	}
	if load.firstErr != nil {
		g.rep.fail("%v", load.firstErr)
	}
	g.completed += load.ok
	return load
}

// check verifies the session's run and byte counters against the
// requests completed so far; it counts as one more operation, failed
// when the counters disagree.
func (g *svcRig) check() error {
	si, err := g.srv.sessionBytes()
	if err != nil {
		return err
	}
	err = checkSessionBytes(si.Bytes, g.completed, g.perRun)
	if err == nil && (si.Runs != g.completed || si.Failures != 0) {
		err = fmt.Errorf("svc-small: session reports %d runs / %d failures, clients completed %d", si.Runs, si.Failures, g.completed)
	}
	g.rep.attempt(err == nil)
	if err != nil {
		g.rep.fail("%v", err)
	}
	return nil
}

func (g *svcRig) close() {
	for _, c := range g.clients {
		c.tr.CloseIdleConnections()
	}
	g.srv.close()
}

// svcSmall is the untraced svc-small workload.
type svcSmall struct {
	*svcRig
	slices []slice
	cpu    time.Duration // process CPU time over the slices
}

func startSvcSmall(seed int64, rep *report) (workload, error) {
	g, err := newSvcRig(seed, nil, rep)
	if err != nil {
		return nil, err
	}
	return &svcSmall{svcRig: g}, nil
}

func (w *svcSmall) slice(d time.Duration) {
	cpu := cpuTime()
	load := w.load(d, nil)
	w.cpu += cpuTime() - cpu
	w.slices = append(w.slices, slice{load.lat, load.elapsed})
}

func (w *svcSmall) finish(rep *report) error {
	defer w.close()
	addLatencies(rep, w.slices)
	n := 0
	for _, s := range w.slices {
		n += len(s.lat)
	}
	rep.add("cpu_ms_per_op", "ms", ms(w.cpu)/float64(max(1, n)))
	return w.check()
}

// setupSvcSmall times daemon start, the TCP mesh dial and the cold Auto
// plan: from daemon.New to the first successful reply. The byte-verified
// reference run comes after the timer, so it cannot warm the plan.
func setupSvcSmall(seed int64) (time.Duration, error) {
	start := time.Now()
	srv, err := startDaemon(nil)
	if err != nil {
		return 0, err
	}
	defer srv.close()
	c, err := newSvcClient(srv.url)
	if err != nil {
		return 0, err
	}
	defer c.tr.CloseIdleConnections()
	_, br, _, err := c.post(nil)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	perRun, err := svcReference(seed)
	if err != nil {
		return 0, err
	}
	if err := checkSessionBytes(br.Bytes, br.Runs, perRun); err != nil {
		return 0, err
	}
	return took, nil
}
