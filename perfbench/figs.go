package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	stpbcast "repro"
	"repro/internal/bench"
)

// paper-figs regenerates three of the paper's figures on the simulator:
// fig3 and fig9 cover the combining family and repositioning on the
// Paragon mesh, fig13a the T3D torus model, all in length-only mode.
// Sockets, the daemon and payloads are bypassed, so a transport or
// service change should leave this workload unchanged. The inputs are
// the paper's configurations; the seed does not change them.
var figIDs = []string{"fig3", "fig9", "fig13a"}

// goldenFigs holds the series digest of each figure (seriesDigest),
// regenerated with `go test -run TestGoldenFigs -update` in this
// directory when a figure is meant to change.
//
//go:embed golden_figs.json
var goldenFigsJSON []byte

func goldenFigs() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenFigsJSON, &g); err != nil {
		return nil, fmt.Errorf("golden_figs.json: %w", err)
	}
	return g, nil
}

// regenFig regenerates one figure, returning its wall time and digest.
func regenFig(id string) (time.Duration, string, error) {
	e, err := bench.ByID(id)
	if err != nil {
		return 0, "", err
	}
	t := time.Now()
	s, err := e.Run()
	took := time.Since(t)
	if err != nil {
		return took, "", fmt.Errorf("paper-figs %s: %w", id, err)
	}
	return took, seriesDigest(s), nil
}

// figLoad is the outcome of regenerating figure sets back to back.
type figLoad struct {
	sets [][]float64 // per complete set, each figure's time in ms
	setS []float64   // per complete set, s
}

// figLoop regenerates whole figure sets until window has passed, at
// least one set, checking every digest against the golden copy.
func figLoop(golden map[string]string, window time.Duration, rep *report) figLoad {
	var out figLoad
	start := time.Now()
	for done := false; !done; done = time.Since(start) >= window {
		var set []float64
		for _, id := range figIDs {
			took, dig, err := regenFig(id)
			if err == nil {
				err = checkDigest(id, dig, golden)
			}
			rep.attempt(err == nil)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			set = append(set, ms(took))
		}
		if len(set) == len(figIDs) {
			out.sets = append(out.sets, set)
			out.setS = append(out.setS, sum(set)/1e3)
		}
	}
	return out
}

// paperFigs is the untraced paper-figs workload.
type paperFigs struct {
	golden map[string]string
	rep    *report
	load   figLoad
	cpu    time.Duration // process CPU time over the slices
}

func startPaperFigs(_ int64, rep *report) (workload, error) {
	stpbcast.SetParallelism(runtime.NumCPU())
	golden, err := goldenFigs()
	if err != nil {
		return nil, err
	}
	figLoop(golden, 0, rep) // warm-up set
	return &paperFigs{golden: golden, rep: rep}, nil
}

func (w *paperFigs) slice(d time.Duration) {
	cpu := cpuTime()
	load := figLoop(w.golden, d, w.rep)
	w.cpu += cpuTime() - cpu
	w.load.sets = append(w.load.sets, load.sets...)
	w.load.setS = append(w.load.setS, load.setS...)
}

func (w *paperFigs) finish(rep *report) error {
	load := w.load
	rep.add("cpu_ms_per_op", "ms", ms(w.cpu)/float64(max(1, len(load.sets)*len(figIDs))))
	// A run regenerates a few dozen figures, too few for a 99th
	// percentile with ten samples beyond it, so each figure set is one
	// slice: the reported values are medians over sets of the set's
	// median figure, slowest figure and figure rate.
	var p50, p99, rate []float64
	for _, set := range load.sets {
		p50 = append(p50, median(set))
		p99 = append(p99, quantile(set, 0.99))
		rate = append(rate, float64(len(set))/(sum(set)/1e3))
	}
	rep.add("op_p50_ms", "ms", median(p50))
	rep.add("op_p99_ms", "ms", median(p99))
	rep.add("op_samples", "count", float64(len(load.sets)*len(figIDs)))
	rep.add("ops_per_s", "1/s", median(rate))
	rep.add("paper-figs.figset_s", "s", median(load.setS))
	return nil
}

// setupPaperFigs times the first verified figure of a fresh process.
func setupPaperFigs(int64) (time.Duration, error) {
	stpbcast.SetParallelism(runtime.NumCPU())
	golden, err := goldenFigs()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, dig, err := regenFig(figIDs[0])
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	return took, checkDigest(figIDs[0], dig, golden)
}
