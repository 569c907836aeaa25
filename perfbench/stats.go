package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of vs (vs is not modified).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// slice is one slice of a workload's measurement window: the latencies
// of the operations it completed, in ms, and its wall time.
type slice struct {
	lat     []float64
	elapsed time.Duration
}

// sliceWidth is the length of one slice. Outside load on a shared
// machine comes in bursts of a few seconds, so the median over slices of
// each slice's statistic moves less with it than the same statistic over
// the whole window. Set-up children run between slices (see main.go).
const sliceWidth = time.Second

// addLatencies reports a closed-loop window measured in slices:
// op_p50_ms and ops_per_s as medians over slices, op_p99_ms over the
// whole window, where it has at least ten samples beyond it, and the
// sample count.
func addLatencies(rep *report, slices []slice) {
	var all, p50, rate []float64
	for _, s := range slices {
		all = append(all, s.lat...)
		if len(s.lat) > 0 {
			p50 = append(p50, median(s.lat))
			rate = append(rate, float64(len(s.lat))/s.elapsed.Seconds())
		}
	}
	rep.add("op_p50_ms", "ms", median(p50))
	rep.add("op_p99_ms", "ms", quantile(all, 0.99))
	rep.add("op_samples", "count", float64(len(all)))
	rep.add("ops_per_s", "1/s", median(rate))
}

// timeN runs fn n times and returns each call's duration in µs.
func timeN(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// peakRSSMB is the process's peak resident set size in MB (getrusage
// reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the CPU time the process has received, user plus system,
// across all its threads. On a virtual machine it excludes time stolen
// by the hypervisor, which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childTimeout bounds one set-up child, so a hung set-up fails the run
// instead of the benchmark's time limit.
const childTimeout = 30 * time.Second

// runChild runs the benchmark binary with args, waits for it to exit and
// parses the number on the last line of its standard output.
func runChild(exe string, args []string) (float64, error) {
	var out, errb bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(errb.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return strconv.ParseFloat(lines[len(lines)-1], 64)
}

// spawner is a helper process that runs the set-up children for a
// measuring parent (see serveSetups). A child is started by the
// spawner, not by the parent, because the children of a process that
// holds an open TCP mesh were measured to set up about four times faster
// than children of a process that holds nothing, or than the same
// set-up started from a shell: setup_s is to read what a fresh process
// pays, whatever the measuring process holds open.
type spawner struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startSpawner starts exe as the spawner for workload.
func startSpawner(exe, workload string) (*spawner, error) {
	cmd := exec.Command(exe, "--setup-spawner", "--workload", workload)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// setup runs one set-up child with seed and returns its set-up seconds.
func (s *spawner) setup(seed int64) (float64, error) {
	if _, err := fmt.Fprintln(s.in, seed); err != nil {
		return 0, err
	}
	if !s.out.Scan() {
		return 0, fmt.Errorf("spawner exited: %v", s.out.Err())
	}
	line := s.out.Text()
	if msg, ok := strings.CutPrefix(line, "error: "); ok {
		return 0, errors.New(msg)
	}
	return strconv.ParseFloat(line, 64)
}

// close ends the spawner and waits for it to exit.
func (s *spawner) close() error {
	s.in.Close()
	return s.cmd.Wait()
}

// serveSetups is the spawner's side: for each seed read from standard
// input it runs one --setup-child, waits for it, and writes its set-up
// seconds, or "error: " and the error, as one line.
func serveSetups(workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		v, err := runChild(exe, []string{"--setup-child", "--workload", workload, "--seed", in.Text()})
		if err != nil {
			fmt.Printf("error: %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
			continue
		}
		fmt.Printf("%.9f\n", v)
	}
	return in.Err()
}
