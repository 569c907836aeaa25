package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	stpbcast "repro"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// The traced run measures each layer from outside, by timing calls into
// the public functions of internal/daemon, the root stpbcast facade,
// internal/plan, internal/tcp, internal/live, internal/core, internal/sim
// (through bench.Measure) and internal/bench, outermost first. Each
// probe targets the svc-small configuration unless it says otherwise, so
// the rungs subtract: HTTP round trip → daemon handler → Session.Run →
// tcp algorithm run → barrier → empty run. internal/cluster is left out:
// its worker processes would oversubscribe a 2-core box.
//
// The output is the same for every --workload: BENCHMARK.json declares
// one per-layer list, which every traced run reports in full. The
// end-to-end numbers of each workload come from untraced runs; here each
// workload runs in alternating untraced and traced slices for the
// trace.overhead_frac metrics.

// ladder carries the traced run's shared state.
type ladder struct {
	rec    *recorder
	rep    *report
	seed   int64
	window time.Duration
	scale  float64 // probe repetitions scale with --seconds

	m16    *stpbcast.Machine
	spec   core.Spec // svc-small's spec
	alg    core.Algorithm
	srcs   []int
	pl     [][]byte // seeded svc-small payloads
	counts map[string][3]int64
	self   map[string]float64 // the ladder's self time per rung metric
}

// reps scales a probe's repetition count by the window/10 s, at least 10.
func (l *ladder) reps(n int) int { return max(10, int(float64(n)*l.scale)) }

// pass is the share of the window each workload pass takes.
func (l *ladder) pass() time.Duration { return 2 * l.window / 5 }

func runLadder(workload string, seed int64, window time.Duration, rep *report) error {
	stpbcast.SetParallelism(runtime.NumCPU())
	// The ladder's length is capped at that of a 10 s window, so a longer
	// end-to-end window does not lengthen the traced run.
	window = min(window, 10*time.Second)
	l := &ladder{rec: newRecorder(), rep: rep, seed: seed, window: window, scale: window.Seconds() / 10,
		counts: make(map[string][3]int64)}
	l.m16 = stpbcast.NewParagon(svcRequest.Rows, svcRequest.Cols)
	dec, err := stpbcast.Plan(l.m16, svcConfig())
	if err != nil {
		return err
	}
	if l.alg, err = core.ByName(dec.Algorithm); err != nil {
		return err
	}
	if l.srcs, err = svcSources(); err != nil {
		return err
	}
	l.spec = core.Spec{Rows: svcRequest.Rows, Cols: svcRequest.Cols, Sources: l.srcs, Indexing: topology.SnakeRowMajor}
	l.pl = seededPayloads(rand.New(rand.NewSource(seed)), l.m16.P(), svcRequest.MsgBytes)
	rep.printf("svc-small Auto plan: %s (%s)", dec.Algorithm, dec.Source)
	for _, probe := range []func() error{
		l.rungs, l.daemon, l.facade, l.plan, l.tcp, l.core, l.sim, l.svcOverhead, l.mixPass, l.figsPass,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	l.printLadder()
	path := filepath.Join(".bench_build", "perfbench", "spans-"+workload+".jsonl")
	if err := l.rec.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.printf("spans: %d written to %s", len(l.rec.snapshot()), path)
	return nil
}

// get returns a measured metric's value.
func (l *ladder) get(name string) float64 { return l.rep.metrics[name].Value }

// check counts one probe operation and records its error.
func (l *ladder) check(err error) bool {
	l.rep.attempt(err == nil)
	if err != nil {
		l.rep.fail("%v", err)
	}
	return err == nil
}

// interleave times fns round-robin n times, alternating the direction
// of each round so no call always runs right after the same neighbour,
// and returns each one's durations in µs. Rungs that are subtracted from
// one another are timed this way so that each sees the same machine
// conditions: on a shared host the machine's speed drifts within seconds.
func interleave(n int, fns ...func() error) ([][]float64, error) {
	out := make([][]float64, len(fns))
	for i := 0; i < n; i++ {
		for k := range fns {
			j := k
			if i%2 == 1 {
				j = len(fns) - 1 - k
			}
			t := time.Now()
			if err := fns[j](); err != nil {
				return nil, err
			}
			out[j] = append(out[j], us(time.Since(t)))
		}
	}
	return out, nil
}

// diff is the median of the paired differences a[i] − b[i].
func diff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// tcpRun runs body once on m and checks that the run's exact frame,
// barrier-frame and byte counts equal those of every earlier run under
// the same name.
func (l *ladder) tcpRun(name string, m *tcp.Machine, body func(*tcp.Proc)) error {
	res, err := m.Run(tcp.Options{RecvTimeout: 10 * time.Second}, body)
	if err != nil {
		return err
	}
	var c [3]int64
	for _, p := range res.Procs {
		c[0] += int64(p.Sends)
		c[1] += int64(p.BarrierSends)
		c[2] += p.SendBytes
	}
	if prev, ok := l.counts[name]; ok && prev != c {
		return fmt.Errorf("exact counts of %s changed between runs: %v then %v", name, prev, c)
	}
	l.counts[name] = c
	return nil
}

// svcBody is one rank of the svc-small broadcast on a bare engine,
// storing each rank's received bundle in got.
func (l *ladder) svcBody(alg core.Algorithm, got []map[int][]byte) func(c comm.Comm) {
	return func(c comm.Comm) {
		out := alg.Run(c, l.spec, core.InitialFor(core.Broadcast, l.spec, c.Rank(), func(r int) []byte { return l.pl[r] }))
		b := make(map[int][]byte, len(out.Parts))
		for _, p := range out.Parts {
			b[p.Origin] = p.Data
		}
		got[c.Rank()] = b
	}
}

// rungs times the ladder, outermost first and round-robin: the loopback
// HTTP round trip with client and handler spans, the same request
// through the handler without a socket, warm Session.Run on each engine,
// and internal/tcp and internal/live driven directly with the same
// algorithm, a barrier-only run and an empty run.
func (l *ladder) rungs() error {
	srv, err := startDaemon(func(h http.Handler) http.Handler { return traceHTTP(l.rec, h) })
	if err != nil {
		return err
	}
	defer srv.close()
	c, err := newSvcClient(srv.url)
	if err != nil {
		return err
	}
	defer c.tr.CloseIdleConnections()
	var ids []int64
	var server, elapsed []float64
	post := func() error {
		_, br, id, err := c.post(l.rec)
		if err != nil {
			return err
		}
		ids = append(ids, id)
		server = append(server, float64(br.ServerNs)/1e3)
		elapsed = append(elapsed, float64(br.ElapsedNs)/1e3)
		return nil
	}
	h := srv.d.Handler()
	handler := func() error {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/broadcast", bytes.NewReader(c.body)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("daemon handler: status %d: %s", rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
		}
		return nil
	}

	cfg := svcConfig()
	var runs []func() error
	for _, eng := range []stpbcast.Engine{stpbcast.EngineTCP, stpbcast.EngineLive, stpbcast.EngineSim} {
		s, err := stpbcast.Open(l.m16, eng, stpbcast.SessionOptions{})
		if err != nil {
			return err
		}
		defer s.Close()
		opts := stpbcast.RunOptions{RecvTimeout: 10 * time.Second}
		if eng != stpbcast.EngineSim {
			opts.Payload = func(r int) []byte { return l.pl[r] }
		}
		runs = append(runs, func() error {
			res, err := s.Run(cfg, opts)
			if err == nil && eng != stpbcast.EngineSim {
				err = checkBroadcast(res.Bundles, l.srcs, l.pl)
			}
			return err
		})
	}

	tm, err := tcp.NewMachine(l.m16.P(), tcp.Options{})
	if err != nil {
		return err
	}
	defer tm.Close()
	tgot := make([]map[int][]byte, tm.Size())
	tbody := l.svcBody(l.alg, tgot)
	tcpAlg := func() error { return l.tcpRun("svc", tm, func(p *tcp.Proc) { tbody(p) }) }
	tcpBarrier := func() error { return l.tcpRun("barrier.p16", tm, func(p *tcp.Proc) { p.Barrier() }) }
	tcpEmpty := func() error { return l.tcpRun("empty.p16", tm, func(*tcp.Proc) {}) }

	lm, err := live.NewMachine(l.m16.P())
	if err != nil {
		return err
	}
	defer lm.Close()
	lgot := make([]map[int][]byte, lm.Size())
	lbody := l.svcBody(l.alg, lgot)
	liveRun := func(fn func(*live.Proc)) func() error {
		return func() error {
			_, err := lm.Run(live.Options{RecvTimeout: 10 * time.Second}, fn)
			return err
		}
	}

	fns := []func() error{
		post, handler, runs[0], tcpAlg, tcpBarrier, tcpEmpty,
		runs[1], liveRun(func(p *live.Proc) { lbody(p) }), liveRun(func(p *live.Proc) { p.Barrier() }), liveRun(func(*live.Proc) {}),
		runs[2],
	}
	if _, err := interleave(20, fns...); !l.check(err) { // warm-up: the first post opens the mesh
		return err
	}
	ids, server, elapsed = nil, nil, nil
	d, err := interleave(l.reps(300), fns...)
	if !l.check(err) {
		return err
	}
	l.check(checkBroadcast(tgot, l.srcs, l.pl))
	l.check(checkBroadcast(lgot, l.srcs, l.pl))
	const (
		iPost = iota
		iHandler
		iRunTCP
		iTCPAlg
		iTCPBarrier
		iTCPEmpty
		iRunLive
		iLiveAlg
		iLiveBarrier
		iLiveEmpty
		iRunSim
	)
	l.rep.add("daemon.http_rt_us", "us", median(d[iPost]))
	l.rep.add("daemon.handler_us", "us", median(d[iHandler]))
	l.rep.add("daemon.self_us", "us", diff(d[iHandler], d[iRunTCP]))
	l.rep.add("daemon.reported.server_us", "us", median(server))
	l.rep.add("daemon.reported.elapsed_us", "us", median(elapsed))
	l.rep.add("stpbcast.run_tcp_us", "us", median(d[iRunTCP]))
	l.rep.add("stpbcast.run_live_us", "us", median(d[iRunLive]))
	l.rep.add("stpbcast.run_sim_us", "us", median(d[iRunSim]))
	l.rep.add("stpbcast.self_us", "us", diff(d[iRunTCP], d[iTCPAlg]))
	l.rep.add("tcp.alg_run_us", "us", median(d[iTCPAlg]))
	l.rep.add("tcp.barrier_run_us.p16", "us", median(d[iTCPBarrier]))
	l.rep.add("tcp.barrier_us.p16", "us", diff(d[iTCPBarrier], d[iTCPEmpty]))
	l.rep.add("tcp.empty_run_us", "us", median(d[iTCPEmpty]))
	l.rep.add("live.alg_run_us", "us", median(d[iLiveAlg]))
	l.rep.add("live.barrier_us.p16", "us", diff(d[iLiveBarrier], d[iLiveEmpty]))
	l.rep.add("live.empty_run_us", "us", median(d[iLiveEmpty]))
	// The ladder's self times, as paired differences of adjacent rungs.
	l.self = map[string]float64{
		"daemon.http_rt_us":    diff(d[iPost], d[iHandler]),
		"daemon.handler_us":    l.get("daemon.self_us"),
		"stpbcast.run_tcp_us":  l.get("stpbcast.self_us"),
		"tcp.alg_run_us":       diff(d[iTCPAlg], d[iTCPBarrier]),
		"tcp.barrier_us.p16":   l.get("tcp.barrier_us.p16"),
		"tcp.empty_run_us":     l.get("tcp.empty_run_us"),
		"stpbcast.run_live_us": diff(d[iRunLive], d[iLiveAlg]),
		"live.alg_run_us":      diff(d[iLiveAlg], d[iLiveBarrier]),
		"stpbcast.run_sim_us":  l.get("stpbcast.run_sim_us"),
	}

	// The server records a handler span after the reply is written; one
	// more request on the same connection orders it before the read below.
	if _, _, _, err := c.post(nil); !l.check(err) {
		return err
	}
	spans := l.rec.snapshot()
	handled := make(map[int64]bool)
	for _, sp := range spans {
		if sp.Name == "daemon.handler" {
			handled[sp.Parent] = true
		}
	}
	self := selfTimes(spans)
	var net []float64
	for _, id := range ids {
		if handled[id] {
			net = append(net, float64(self[id])/1e3)
		}
	}
	l.rep.add("daemon.net_self_us", "us", median(net))

	frames := float64(l.counts["svc"][0] + l.counts["svc"][1])
	l.rep.add("tcp.us_per_frame", "us", l.get("tcp.alg_run_us")/frames)
	// Fit run time = a + β·frames over the p=16 empty, barrier-only and
	// svc-small runs: β is the engine's per-frame (startup) cost.
	xs := []float64{0, float64(l.counts["barrier.p16"][1]), frames}
	ys := []float64{l.get("tcp.empty_run_us"), l.get("tcp.barrier_run_us.p16"), l.get("tcp.alg_run_us")}
	l.rep.add("tcp.fit_us_per_frame", "us", slope(xs, ys))

	// Allocation per warm Session.Run, apart from the timed loop.
	n := l.reps(100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = timeN(n, runs[0])
	runtime.ReadMemStats(&after)
	if !l.check(err) {
		return err
	}
	l.rep.add("stpbcast.alloc_kb_per_run.svc", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n))
	return nil
}

// daemon: a warm pool lease, Acquire plus Release.
func (l *ladder) daemon() error {
	pool := daemon.NewPool(daemon.PoolOptions{})
	defer pool.Close()
	key := daemon.Key{Engine: svcRequest.Engine, Topology: svcRequest.Topology, Rows: svcRequest.Rows, Cols: svcRequest.Cols}
	acq, err := timeN(l.reps(1000)+1, func() error {
		lease, err := pool.Acquire(key)
		if err != nil {
			return err
		}
		lease.Release()
		return nil
	})
	if !l.check(err) {
		return err
	}
	l.rep.add("daemon.acquire_us", "us", median(acq[1:])) // the first Acquire opens the session
	return nil
}

// facade: Config.Validate and Open of a TCP session.
func (l *ladder) facade() error {
	cfg := svcConfig()
	const nv = 20000
	t := time.Now()
	for i := 0; i < nv; i++ {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	l.rep.add("stpbcast.validate_us", "us", us(time.Since(t))/nv)

	open, err := timeN(5, func() error {
		s, err := stpbcast.Open(l.m16, stpbcast.EngineTCP, stpbcast.SessionOptions{})
		if err != nil {
			return err
		}
		_, err = s.Close()
		return err
	})
	if !l.check(err) {
		return err
	}
	l.rep.add("stpbcast.open_tcp_ms", "ms", median(open)/1e3)
	return nil
}

// plan: a cold Decide on a fresh planner (analytic ranking plus probe
// simulations) and a cache hit on the same planner.
func (l *ladder) plan() error {
	req := plan.Request{Collective: core.Broadcast, Spec: l.spec, MsgLen: svcRequest.MsgBytes, DistName: svcRequest.Distribution}
	var pl *plan.Planner
	cold, err := timeN(5, func() error {
		pl = plan.New(plan.Options{Cache: plan.NewMemCache(0)})
		dec, err := pl.Decide(context.Background(), l.m16, req)
		if err == nil && dec.Algorithm != l.alg.Name() {
			err = fmt.Errorf("plan: fresh planner chose %s, the facade %s", dec.Algorithm, l.alg.Name())
		}
		return err
	})
	if !l.check(err) {
		return err
	}
	hit, err := timeN(l.reps(2000), func() error {
		dec, err := pl.Decide(context.Background(), l.m16, req)
		if err == nil && dec.Source != "cache" {
			err = fmt.Errorf("plan: warm Decide answered from %q, not the cache", dec.Source)
		}
		return err
	})
	if !l.check(err) {
		return err
	}
	l.rep.add("plan.cold_ms", "ms", median(cold)/1e3)
	l.rep.add("plan.hit_us", "us", median(hit))
	return nil
}

// tcp drives internal/tcp directly beyond the ladder's rungs: barrier
// cost at p=2 and 4, p=2 ping-pong hops, the svc-small algorithm traced
// for its send and receive-wait shares, and the exact counts of the
// tcp-mix collectives.
func (l *ladder) tcp() error {
	for _, p := range []int{2, 4} {
		m, err := tcp.NewMachine(p, tcp.Options{})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("p%d", p)
		d, err := interleave(l.reps(300),
			func() error { return l.tcpRun("barrier."+name, m, func(p *tcp.Proc) { p.Barrier() }) },
			func() error { return l.tcpRun("empty."+name, m, func(*tcp.Proc) {}) })
		if l.check(err) {
			l.rep.add("tcp.barrier_us."+name, "us", diff(d[0], d[1]))
			if p == 2 {
				err = l.hops(m, median(d[1]))
			}
		}
		m.Close()
		if err != nil {
			return err
		}
	}
	m, err := tcp.NewMachine(l.m16.P(), tcp.Options{})
	if err != nil {
		return err
	}
	defer m.Close()
	got := make([]map[int][]byte, m.Size())
	ta := newTracedAlg(l.alg, l.rec)
	body := l.svcBody(ta, got)
	var runs []int64
	for i := 0; i < l.reps(200); i++ {
		sp := l.rec.start("tcp.run", 0, "")
		ta.within(sp.ID, sp.Req)
		err := l.tcpRun("svc", m, func(p *tcp.Proc) { body(p) })
		l.rec.finish(sp)
		if !l.check(err) {
			return err
		}
		runs = append(runs, sp.ID)
	}
	l.check(checkBroadcast(got, l.srcs, l.pl))
	sums := perRunSums(l.rec.snapshot(), runs)
	// The comm wrapper's own counts must agree with the engine's.
	c := l.counts["svc"]
	for i := range runs {
		if sums["frames"][i] != float64(c[0]) || sums["bytes"][i] != float64(c[2]) {
			l.rep.fail("comm wrapper counted %v frames / %v bytes in a run, the engine %d / %d",
				sums["frames"][i], sums["bytes"][i], c[0], c[2])
			break
		}
	}
	l.rep.add("tcp.send_us_per_run", "us", median(sums["comm.send"]))
	l.rep.add("tcp.recv_wait_us_per_run", "us", median(sums["comm.recv"]))
	l.rep.add("core.self_us_per_run.svc", "us", median(sums["core.self"]))

	in, err := newMixInputs(l.seed)
	if err != nil {
		return err
	}
	all := core.Spec{Rows: 4, Cols: 4, Sources: core.AllRanksSources(mixP), Indexing: topology.SnakeRowMajor}
	for k, kind := range mixKinds {
		alg, err := core.ByNameFor(kind.cfg.Collective, kind.cfg.Algorithm)
		if err != nil {
			return err
		}
		pl := in.payloads[k][0]
		for i := 0; i < 3; i++ {
			err := l.tcpRun(kind.name, m, func(p *tcp.Proc) {
				alg.Run(p, all, core.InitialFor(kind.cfg.Collective, all, p.Rank(), func(r int) []byte { return pl[r] }))
			})
			if !l.check(err) {
				return err
			}
		}
	}
	for _, name := range []string{"svc", "bcast", "allreduce", "alltoall"} {
		c := l.counts[name]
		l.rep.add("tcp.frames_per_run."+name, "count", float64(c[0]))
		l.rep.add("tcp.barrier_frames_per_run."+name, "count", float64(c[1]))
		l.rep.add("tcp.bytes_per_run."+name, "count", float64(c[2]))
	}
	return nil
}

// hops measures p=2 ping-pong: each run bounces one message k times, so
// a hop costs (run − empty run) / 2k.
func (l *ladder) hops(m *tcp.Machine, emptyUs float64) error {
	for _, h := range []struct {
		name string
		n, k int
	}{{"1k", 1 << 10, 200}, {"64k", 64 << 10, 20}} {
		msg := comm.Message{Parts: []comm.Part{{Origin: 0, Data: seededPayloads(rand.New(rand.NewSource(l.seed)), 1, h.n)[0]}}}
		body := func(p *tcp.Proc) {
			peer := 1 - p.Rank()
			for i := 0; i < h.k; i++ {
				if p.Rank() == 0 {
					p.Send(peer, msg)
					if got := p.Recv(peer); !bytes.Equal(got.Parts[0].Data, msg.Parts[0].Data) {
						panic("ping-pong payload corrupted")
					}
				} else {
					p.Send(peer, p.Recv(peer))
				}
			}
		}
		n := l.reps(50)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := timeN(n, func() error { return l.tcpRun("hop."+h.name, m, body) })
		runtime.ReadMemStats(&after)
		if !l.check(err) {
			return err
		}
		l.rep.add("tcp.hop_us."+h.name, "us", (median(d)-emptyUs)/float64(2*h.k))
		if h.name == "1k" {
			l.rep.add("tcp.allocs_per_hop", "count", float64(after.Mallocs-before.Mallocs)/float64(2*h.k*n))
		}
	}
	return nil
}

// perRunSums sums, per run span, the durations (µs) of its ranks'
// comm spans by name, each run's core self time (its rank spans'
// durations minus the comm calls they made), and the frames and payload
// bytes its ranks sent ("frames", "bytes").
func perRunSums(spans []span, runs []int64) map[string][]float64 {
	want := make(map[int64]bool, len(runs))
	for _, id := range runs {
		want[id] = true
	}
	algRun := make(map[int64]int64) // core.alg span → run span
	for _, s := range spans {
		if s.Name == "core.alg" && want[s.Parent] {
			algRun[s.ID] = s.Parent
		}
	}
	self := selfTimes(spans)
	sums := make(map[int64]map[string]int64)
	for _, s := range spans {
		run, name, v := algRun[s.Parent], s.Name, s.dur()
		if s.Name == "core.alg" && want[s.Parent] {
			run, name, v = s.Parent, "core.self", self[s.ID]
		}
		if run == 0 {
			continue
		}
		if sums[run] == nil {
			sums[run] = make(map[string]int64)
		}
		sums[run][name] += v
		if name == "comm.send" {
			sums[run]["frames"]++
			sums[run]["bytes"] += int64(s.Bytes)
		}
	}
	out := make(map[string][]float64)
	for _, id := range runs {
		for name, v := range sums[id] {
			f := float64(v)
			if name != "frames" && name != "bytes" {
				f /= 1e3
			}
			out[name] = append(out[name], f)
		}
	}
	return out
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// core: the byte-wise fold over 16 parts of 16 KiB, the AllReduce
// combine step.
func (l *ladder) core() error {
	parts := seededPayloads(rand.New(rand.NewSource(l.seed)), mixP, 16<<10)
	msg := comm.Message{}
	for r, p := range parts {
		msg.Parts = append(msg.Parts, comm.Part{Origin: r, Data: p})
	}
	want := foldBytes(parts)
	d, err := timeN(l.reps(500), func() error {
		out := core.ReduceBundle(msg)
		if len(out.Parts) != 1 || !bytes.Equal(out.Parts[0].Data, want) {
			return fmt.Errorf("core.ReduceBundle: fold differs from the reference")
		}
		return nil
	})
	if !l.check(err) {
		return err
	}
	l.rep.add("core.fold_us.16k", "us", median(d))
	return nil
}

// sim: bench.Measure on the quickstart cell (Paragon 10×10, Br_xy_source,
// E(30), 4 KiB) and the network construction it starts with.
func (l *ladder) sim() error {
	m := stpbcast.NewParagon(10, 10)
	alg, err := core.ByName("Br_xy_source")
	if err != nil {
		return err
	}
	d, err := stpbcast.DistributionByName("E")
	if err != nil {
		return err
	}
	spec, err := bench.SpecFor(m, d, 30)
	if err != nil {
		return err
	}
	var elapsed time.Duration
	msgs := -1
	n := l.reps(200)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := timeN(n, func() error {
		res, err := bench.Measure(m, alg, spec, 4<<10)
		if err != nil {
			return err
		}
		sends := 0
		for _, p := range res.Procs {
			sends += p.Sends
		}
		if msgs >= 0 && (sends != msgs || res.Elapsed.Duration() != elapsed) {
			return fmt.Errorf("sim: quickstart cell not deterministic: %d msgs %v, then %d msgs %v", msgs, elapsed, sends, res.Elapsed.Duration())
		}
		msgs, elapsed = sends, res.Elapsed.Duration()
		return nil
	})
	runtime.ReadMemStats(&after)
	if !l.check(err) {
		return err
	}
	nw, err := timeN(l.reps(500), func() error {
		_, err := m.NewNetwork()
		return err
	})
	if !l.check(err) {
		return err
	}
	l.rep.add("sim.run_us", "us", median(run))
	l.rep.add("sim.newnetwork_us", "us", median(nw))
	l.rep.add("sim.allocs_per_run", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
	l.rep.add("sim.kb_per_run", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n))
	l.rep.add("sim.msgs_per_run", "count", float64(msgs))
	l.rep.printf("sim quickstart cell: %.3f ms simulated", float64(elapsed)/1e6)
	return nil
}

// pairedOverhead measures a tracing overhead. It runs pairs of an
// untraced and a traced slice back to back, flipping which goes first
// from pair to pair, until window has passed and the pair count is a
// multiple of step. It returns the median over pairs of the untraced ÷
// traced rate − 1. The two halves of a pair see the same machine speed,
// so the host's drift over the pass cancels in each ratio. run(i,
// traced) runs one half of pair i and returns its rate.
func pairedOverhead(window time.Duration, step int, run func(i int, traced bool) float64) float64 {
	var fr []float64
	start := time.Now()
	for i := 0; i%step != 0 || time.Since(start) < window; i++ {
		var rate [2]float64 // untraced, traced
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			if traced {
				rate[1] = run(i, true)
			} else {
				rate[0] = run(i, false)
			}
		}
		fr = append(fr, rate[0]/rate[1]-1)
	}
	return median(fr)
}

// overheadSlice is the length of one half of an overhead pair on the
// closed-loop workloads: short, so a pass holds many pairs.
const overheadSlice = 200 * time.Millisecond

// svcOverhead runs svc-small on one warm daemon behind the tracing
// middleware, alternating untraced clients with clients that trace every
// request (client span, request ID, handler span), then checks the
// session's counters.
func (l *ladder) svcOverhead() error {
	g, err := newSvcRig(l.seed, l.rec, l.rep)
	if err != nil {
		return err
	}
	defer g.close()
	frac := pairedOverhead(l.pass(), 1, func(_ int, traced bool) float64 {
		var rec *recorder
		if traced {
			rec = l.rec
		}
		load := g.load(overheadSlice, rec)
		return float64(load.ok) / load.elapsed.Seconds()
	})
	l.rep.add("trace.overhead_frac.svc-small", "frac", frac)
	return g.check()
}

// mixPass runs tcp-mix in alternating untraced and traced slices. The
// untraced ones give the per-collective medians, the payload rate and
// the allocation per op; the traced ones, through the algorithm and comm
// wrappers, give the core self time per collective.
func (l *ladder) mixPass() error {
	in, err := newMixInputs(l.seed)
	if err != nil {
		return err
	}
	s, err := openMix()
	if err != nil {
		return err
	}
	defer s.Close()
	tr, err := newMixTracer(l.rec)
	if err != nil {
		return err
	}
	mixLoop(s, in, 0, nil, l.rep)
	plain := mixLoad{lat: make([][]float64, len(mixKinds))}
	var alloc uint64
	frac := pairedOverhead(l.pass(), 1, func(_ int, traced bool) float64 {
		if traced {
			load := mixLoop(s, in, overheadSlice, tr, l.rep)
			return float64(load.ok) / load.elapsed.Seconds()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load := mixLoop(s, in, overheadSlice, nil, l.rep)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		plain.add(load)
		return float64(load.ok) / load.elapsed.Seconds()
	})
	l.rep.add("trace.overhead_frac.tcp-mix", "frac", frac)
	addMixKinds(l.rep, plain)
	l.rep.add("stpbcast.alloc_kb_per_run.mix", "KiB", float64(alloc)/1024/float64(plain.ok))
	spans := l.rec.snapshot()
	for k, kind := range mixKinds {
		sums := perRunSums(spans, tr.runs[k])
		l.rep.add("core.self_us_per_run."+kind.name, "us", median(sums["core.self"]))
	}
	return nil
}

// figsPass regenerates the figure set figure by figure, each figure once
// untraced and once inside a "bench.fig" span. The untraced halves give
// the per-figure and per-set times.
func (l *ladder) figsPass() error {
	golden, err := goldenFigs()
	if err != nil {
		return err
	}
	byID := make(map[string][]float64)
	var setS []float64
	frac := pairedOverhead(l.pass(), len(figIDs), func(i int, traced bool) float64 {
		id := figIDs[i%len(figIDs)]
		var sp span
		if traced {
			sp = l.rec.start("bench.fig", 0, id)
		}
		took, dig, err := regenFig(id)
		if traced {
			l.rec.finish(sp)
		}
		if err == nil {
			err = checkDigest(id, dig, golden)
		}
		l.check(err)
		if !traced {
			byID[id] = append(byID[id], ms(took))
			if i%len(figIDs) == 0 {
				setS = append(setS, 0)
			}
			setS[len(setS)-1] += took.Seconds()
		}
		return 1 / took.Seconds()
	})
	for _, id := range figIDs {
		l.rep.add("bench.fig_ms."+id, "ms", median(byID[id]))
	}
	l.rep.add("paper-figs.figset_s", "s", median(setS))
	l.rep.add("trace.overhead_frac.paper-figs", "frac", frac)
	return nil
}

// roadmapUs is the ROADMAP re-anchor measurement of the same rungs, as a
// [low, high] range in µs: 2 vCPU, Go 1.24, p=16 Paragon 4×4, Br_Lin, E,
// s=4, L=1 KiB, warm. svc-small runs Auto, so the algorithm may differ.
var roadmapUs = map[string][2]float64{
	"daemon.http_rt_us":    {1750, 1810},
	"daemon.handler_us":    {1580, 1650},
	"stpbcast.run_tcp_us":  {1570, 1620},
	"tcp.barrier_us.p16":   {670, 780},
	"tcp.empty_run_us":     {15, 15},
	"stpbcast.run_live_us": {180, 210},
	"stpbcast.run_sim_us":  {230, 280},
	"plan.hit_us":          {2, 2},
	"tcp.barrier_us.p2":    {22, 22},
	"tcp.barrier_us.p4":    {90, 110},
	"tcp.hop_us.1k":        {17, 17},
}

// printLadder prints the rungs outermost first with their p50 and self
// time (the paired difference to the rung below), the control rungs and
// the per-frame cost, each beside the ROADMAP re-anchor range.
func (l *ladder) printLadder() {
	g := l.get
	rungs := []struct{ label, metric string }{
		{"HTTP round trip (loopback)", "daemon.http_rt_us"},
		{"daemon handler (no socket)", "daemon.handler_us"},
		{"Session.Run, tcp", "stpbcast.run_tcp_us"},
		{"tcp algorithm run", "tcp.alg_run_us"},
		{"barrier, p=16", "tcp.barrier_us.p16"},
		{"empty tcp run, p=16", "tcp.empty_run_us"},
		{"control: Session.Run, live", "stpbcast.run_live_us"},
		{"control: live algorithm run", "live.alg_run_us"},
		{"control: Session.Run, sim", "stpbcast.run_sim_us"},
		{"barrier, p=2", "tcp.barrier_us.p2"},
		{"barrier, p=4", "tcp.barrier_us.p4"},
		{"p=2 hop, 1 KiB", "tcp.hop_us.1k"},
		{"cached plan", "plan.hit_us"},
	}
	l.rep.printf("")
	l.rep.printf("ladder (svc-small config, %s)          p50 µs    self µs   ROADMAP µs     here vs ROADMAP", l.alg.Name())
	for _, r := range rungs {
		v := g(r.metric)
		self, ok := l.self[r.metric]
		if !ok {
			self = v
		}
		ref, verdict := "-", ""
		if rg, ok := roadmapUs[r.metric]; ok {
			ref = fmt.Sprintf("%g–%g", rg[0], rg[1])
			switch {
			case v < rg[0]*0.9:
				verdict = fmt.Sprintf("lower, ×%.2f", v/rg[0])
			case v > rg[1]*1.1:
				verdict = fmt.Sprintf("higher, ×%.2f", v/rg[1])
			default:
				verdict = "within 10%"
			}
		}
		l.rep.printf("  %-44s %9.1f  %9.1f   %-13s  %s", r.label, v, self, ref, verdict)
	}
	l.rep.printf("  socket share of Session.Run (tcp − live): %.1f µs of %.1f", g("stpbcast.run_tcp_us")-g("stpbcast.run_live_us"), g("stpbcast.run_tcp_us"))
	l.rep.printf("  per-frame cost: %.2f µs/frame (alg run ÷ %g frames); fitted β %.2f µs/frame over the empty, barrier and alg runs",
		g("tcp.us_per_frame"), g("tcp.frames_per_run.svc")+g("tcp.barrier_frames_per_run.svc"), g("tcp.fit_us_per_frame"))
	l.rep.printf("  barrier share of the tcp algorithm run: %.0f%%", 100*g("tcp.barrier_us.p16")/g("tcp.alg_run_us"))
	l.rep.printf("  the daemon handler and Session.Run run on two different meshes, whose run times differ by up to")
	l.rep.printf("  about 10%%; a daemon self time inside that spread, negative included, is not resolved")
}
