package main

import (
	"fmt"
	"math/rand"
	"time"

	stpbcast "repro"
	"repro/internal/core"
)

// tcp-mix drives one warm TCP session (Paragon 4×4, p=16) directly, with
// no HTTP, from one closed-loop caller. Each cycle runs the three
// collectives below in a seeded order with seeded payloads. Bytes, not
// frame count, dominate here, and the three use the core and the engine
// differently, so a gain for one that costs another shows.
type mixKind struct {
	name string
	cfg  stpbcast.Config
}

// inLen is the payload length per rank: L, or p·L for the chunked
// all-to-all.
func (k mixKind) inLen() int {
	if k.cfg.Collective.Caps().Chunked {
		return mixP * k.cfg.MsgBytes
	}
	return k.cfg.MsgBytes
}

const mixP = 16

var mixKinds = []mixKind{
	{"bcast", stpbcast.Config{Collective: stpbcast.CollectiveBroadcast, Algorithm: "Br_xy_source",
		Distribution: "E", Sources: mixP, MsgBytes: 16 << 10}},
	{"allreduce", stpbcast.Config{Collective: stpbcast.CollectiveAllReduce, Algorithm: "AllRed_RecDouble",
		Distribution: "E", Sources: mixP, MsgBytes: 16 << 10}},
	{"alltoall", stpbcast.Config{Collective: stpbcast.CollectiveAllToAll, Algorithm: "A2A_Pairwise",
		MsgBytes: 4 << 10}},
}

// mixVariants is how many seeded payload sets each collective cycles
// through, so consecutive runs of one collective carry different bytes.
const mixVariants = 3

// mixInputs are the seeded inputs of one tcp-mix run.
type mixInputs struct {
	rng      *rand.Rand
	payloads [][][][]byte // kind → variant → rank → bytes
	folds    [][]byte     // AllReduce reference result per variant
	sources  []int        // Broadcast sources
}

func newMixInputs(seed int64) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mixInputs{rng: rng}
	for _, k := range mixKinds {
		var vs [][][]byte
		for v := 0; v < mixVariants; v++ {
			vs = append(vs, seededPayloads(rng, mixP, k.inLen()))
			if k.cfg.Collective == stpbcast.CollectiveAllReduce {
				in.folds = append(in.folds, foldBytes(vs[v]))
			}
		}
		in.payloads = append(in.payloads, vs)
	}
	d, err := stpbcast.DistributionByName("E")
	if err != nil {
		return nil, err
	}
	in.sources, err = d.Sources(4, 4, mixP)
	return in, err
}

// mixTracer instruments tcp-mix in the traced run: one algorithm
// wrapper per collective, and one "stpbcast.run" span around each
// Session.Run that parents the wrapper's rank spans.
type mixTracer struct {
	rec  *recorder
	algs []*tracedAlg
	runs [][]int64 // per kind, the stpbcast.run span IDs
}

func newMixTracer(rec *recorder) (*mixTracer, error) {
	tr := &mixTracer{rec: rec, runs: make([][]int64, len(mixKinds))}
	for _, k := range mixKinds {
		a, err := core.ByNameFor(k.cfg.Collective, k.cfg.Algorithm)
		if err != nil {
			return nil, err
		}
		tr.algs = append(tr.algs, newTracedAlg(a, rec))
	}
	return tr, nil
}

// run executes kind k with payload variant v on s, verifies the result
// and returns its duration and delivered payload bytes. tr, when
// non-nil, traces the run.
func (in *mixInputs) run(s *stpbcast.Session, k, v int, tr *mixTracer) (time.Duration, int64, error) {
	pl := in.payloads[k][v]
	// The payload slices are handed over without a copy; the checkers
	// compare against the same slices and the precomputed folds, so a
	// program that wrote into its inputs would fail a later check.
	opts := stpbcast.RunOptions{RecvTimeout: 10 * time.Second, Payload: func(r int) []byte { return pl[r] }}
	var sp span
	if tr != nil {
		sp = tr.rec.start("stpbcast.run", 0, "")
		tr.algs[k].within(sp.ID, sp.Req)
		opts.Algorithm = tr.algs[k]
	}
	t := time.Now()
	res, err := s.Run(mixKinds[k].cfg, opts)
	took := time.Since(t)
	if tr != nil {
		tr.rec.finish(sp)
		tr.runs[k] = append(tr.runs[k], sp.ID)
	}
	if err != nil {
		return took, 0, fmt.Errorf("tcp-mix %s: %w", mixKinds[k].name, err)
	}
	switch mixKinds[k].name {
	case "bcast":
		err = checkBroadcast(res.Bundles, in.sources, pl)
	case "allreduce":
		err = checkAllReduce(res.Bundles, in.folds[v])
	case "alltoall":
		err = checkAllToAll(res.Bundles, pl)
	}
	return took, usefulBytes(res.Bundles), err
}

// cycle returns the next seeded cycle: each collective once, in a
// seeded order, each with a seeded payload variant.
func (in *mixInputs) cycle() [][2]int {
	var out [][2]int
	for _, k := range in.rng.Perm(len(mixKinds)) {
		out = append(out, [2]int{k, in.rng.Intn(mixVariants)})
	}
	return out
}

func openMix() (*stpbcast.Session, error) {
	return stpbcast.Open(stpbcast.NewParagon(4, 4), stpbcast.EngineTCP, stpbcast.SessionOptions{})
}

// mixLoad is the outcome of a closed-loop tcp-mix burst.
type mixLoad struct {
	lat     [][]float64 // per kind, ms
	all     []float64   // every run, ms
	ok      int
	useful  int64
	elapsed time.Duration
}

// add merges o into l.
func (l *mixLoad) add(o mixLoad) {
	for k := range o.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
	}
	l.all = append(l.all, o.all...)
	l.ok += o.ok
	l.useful += o.useful
	l.elapsed += o.elapsed
}

// mixLoop runs seeded cycles on s until window has passed, at least one
// cycle. tr, when non-nil, traces every run.
func mixLoop(s *stpbcast.Session, in *mixInputs, window time.Duration, tr *mixTracer, rep *report) mixLoad {
	out := mixLoad{lat: make([][]float64, len(mixKinds))}
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= window {
		for _, kv := range in.cycle() {
			took, useful, err := in.run(s, kv[0], kv[1], tr)
			rep.attempt(err == nil)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			out.ok++
			out.useful += useful
			out.lat[kv[0]] = append(out.lat[kv[0]], ms(took))
			out.all = append(out.all, ms(took))
		}
	}
	out.elapsed = time.Since(start)
	return out
}

// mixWarmupCycles run verified but untimed before the window.
const mixWarmupCycles = 3

// tcpMix is the untraced tcp-mix workload.
type tcpMix struct {
	s      *stpbcast.Session
	in     *mixInputs
	rep    *report
	total  mixLoad
	slices []slice
	cpu    time.Duration // process CPU time over the slices
}

func startTCPMix(seed int64, rep *report) (workload, error) {
	in, err := newMixInputs(seed)
	if err != nil {
		return nil, err
	}
	s, err := openMix()
	if err != nil {
		return nil, err
	}
	for i := 0; i < mixWarmupCycles; i++ {
		mixLoop(s, in, 0, nil, rep)
	}
	return &tcpMix{s: s, in: in, rep: rep, total: mixLoad{lat: make([][]float64, len(mixKinds))}}, nil
}

func (w *tcpMix) slice(d time.Duration) {
	cpu := cpuTime()
	load := mixLoop(w.s, w.in, d, nil, w.rep)
	w.cpu += cpuTime() - cpu
	w.total.add(load)
	w.slices = append(w.slices, slice{load.all, load.elapsed})
}

func (w *tcpMix) finish(rep *report) error {
	w.s.Close()
	rep.add("cpu_ms_per_op", "ms", ms(w.cpu)/float64(max(1, w.total.ok)))
	addLatencies(rep, w.slices)
	addMixKinds(rep, w.total)
	return nil
}

// addMixKinds reports the per-collective medians and the payload rate.
func addMixKinds(rep *report, load mixLoad) {
	for k, kind := range mixKinds {
		rep.add("tcp-mix."+kind.name+"_p50_ms", "ms", median(load.lat[k]))
	}
	rep.add("tcp-mix.payload_mb_per_s", "MB/s", float64(load.useful)/load.elapsed.Seconds()/1e6)
}

// setupTCPMix times Open plus the first verified run of each collective.
func setupTCPMix(seed int64) (time.Duration, error) {
	in, err := newMixInputs(seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	s, err := openMix()
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for k := range mixKinds {
		if _, _, err := in.run(s, k, 0, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
