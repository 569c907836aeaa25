// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints every metric by name and unit, then, as the
// last line of standard output, one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the JSON carries the end-to-end metrics BENCHMARK.json
// declares, measured untraced on the chosen workload. With --trace 1 it
// carries the per-layer metrics: the traced ladder run, which times calls
// into each module from outside (see ladder.go). BENCHMARK.json declares
// one per-layer list and every traced run must report all of it, so the
// ladder, including its pass over each of the three workloads, is the
// same for every --workload; the flag only names the span file.
//
// Workloads (see README.md for why each exists):
//
//	svc-small   in-process daemon, 2 closed-loop HTTP clients, the ROADMAP anchor request
//	tcp-mix     one warm TCP session, Broadcast/AllReduce/AllToAll at 4–16 KiB, seeded payloads
//	paper-figs  fig3, fig9 and fig13a regenerated on the simulator, digests checked
//
// Run it from the repository root (perfbench/run.py builds and runs it):
//
//	python3 perfbench/run.py --workload tcp-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one workload's warm state. It runs its load one slice at
// a time, so that the set-up children can run between slices, and
// reports its metrics once the window is over.
type workload interface {
	// slice runs the load for about d and records its operations.
	slice(d time.Duration)
	// finish reports the window's metrics, runs the end-of-window checks
	// and releases the workload.
	finish(rep *report) error
}

// workloads maps a workload name to its untraced measurement, which
// starts and warms the workload (untimed), and to its set-up path:
// everything from workload start until the first verified operation,
// timed in a fresh child process so process-wide caches (the planner's
// memory cache, buffer pools) start cold every time.
var workloads = map[string]struct {
	start func(seed int64, rep *report) (workload, error)
	setup func(seed int64) (time.Duration, error)
}{
	"svc-small":  {startSvcSmall, setupSvcSmall},
	"tcp-mix":    {startTCPMix, setupTCPMix},
	"paper-figs": {startPaperFigs, setupPaperFigs},
}

// setupRuns is how many child-process set-ups one run takes the median
// of. They are spread evenly over the measurement window, between its
// slices, so setup_s sees the same machine conditions as the other
// metrics rather than those of a few seconds after them.
const setupRuns = 21

func main() {
	workload := flag.String("workload", "", "svc-small, tcp-mix or paper-figs")
	seed := flag.Int64("seed", 1, "workload seed: payload bytes and the tcp-mix cycle order")
	seconds := flag.Float64("seconds", 10, "measurement window per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end workload")
	setupChild := flag.Bool("setup-child", false, "time one workload set-up and print it (used by the benchmark itself)")
	setupSpawner := flag.Bool("setup-spawner", false, "run a set-up child per seed read from standard input (used by the benchmark itself)")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fail("unknown --workload %q (want svc-small, tcp-mix or paper-figs)", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail("--seconds must be positive and --trace 0 or 1")
	}
	if *setupChild {
		took, err := workloads[*workload].setup(*seed)
		if err != nil {
			fail("set-up %s: %v", *workload, err)
		}
		fmt.Printf("%.9f\n", took.Seconds())
		return
	}
	if *setupSpawner {
		if err := serveSetups(*workload); err != nil {
			fail("set-up spawner: %v", err)
		}
		return
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	window := time.Duration(*seconds * float64(time.Second))
	rep := newReport()
	var runErr error
	want := decl.EndToEnd
	if *traced == 1 {
		want = decl.PerLayer
		runErr = runLadder(*workload, *seed, window, rep)
	} else {
		runErr = measure(*workload, *seed, window, rep)
		rep.add("peak_rss_mb", "MB", peakRSSMB())
	}
	if runErr != nil {
		rep.fail("%v", runErr)
	}
	rep.emit(os.Stdout, want)
}

// measure runs the untraced workload: slices of load until window has
// been measured, with the setupRuns set-up children spread between the
// slices. setup_s is the children's median.
func measure(name string, seed int64, window time.Duration, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sp, err := startSpawner(exe, name)
	if err != nil {
		return err
	}
	defer sp.close()
	w, err := workloads[name].start(seed, rep)
	if err != nil {
		return err
	}
	var secs []float64
	var measured time.Duration
	for len(secs) < setupRuns {
		if measured < window {
			t := time.Now()
			w.slice(min(sliceWidth, window-measured))
			measured += time.Since(t)
		}
		for len(secs) < setupRuns && (measured >= window || len(secs) < int(setupRuns*measured/window)) {
			v, err := sp.setup(seed + int64(len(secs)))
			rep.attempt(err == nil)
			if err != nil {
				w.finish(rep)
				return fmt.Errorf("set-up child %d: %w", len(secs), err)
			}
			secs = append(secs, v)
		}
	}
	rep.add("setup_s", "s", median(secs))
	return w.finish(rep)
}

// declared is the metric list of BENCHMARK.json, the single source of
// the names and units the JSON result line must carry.
type declared struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics in measurement order, its operation
// counts and every correctness failure.
type report struct {
	order     []string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	lines     []string // extra human-readable output (the ladder table)
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) add(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts one operation; a failed, refused or wrongly verified
// operation counts as failed.
func (r *report) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// maxProblems bounds the problems a run lists; the failure count still
// covers every failed operation.
const maxProblems = 20

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// emit prints every metric, the extra lines and the problems, then the
// JSON result line carrying exactly the declared metrics.
func (r *report) emit(f *os.File, want []declMetric) {
	if r.attempted > 0 {
		r.add("fail_frac", "frac", float64(r.failed)/float64(r.attempted))
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(f, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			r.fail("declared metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			r.fail("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		default:
			out.Metrics[d.Name] = m
		}
	}
	if out.Attempted < 1 {
		r.fail("no operation attempted")
		out.Attempted = 1
		out.Failed = 1
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintln(f, "CHECK FAILED:", p)
	}
	out.Correct = len(r.problems) == 0 && r.failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Fprintln(f, string(b))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
