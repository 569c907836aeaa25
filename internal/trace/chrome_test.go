package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// smallRun traces 2-Step on a 2×2 simulated Paragon — small enough that
// the exported Chrome trace is a reviewable golden file, deterministic
// because the simulator is.
func smallRun(t *testing.T) *Recorder {
	t.Helper()
	m := machine.Paragon(2, 2)
	nw, err := m.NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Rows: 2, Cols: 2, Sources: []int{0, 3}, Indexing: topology.SnakeRowMajor}
	rec := NewRecorder(0)
	if _, err := sim.Run(nw, func(p *sim.Proc) {
		mine := core.InitialMessageLen(spec, p.Rank(), 64)
		core.RunSynced(p, core.TwoStep(), spec, mine)
	}, sim.Options{Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestWriteChromeValidates(t *testing.T) {
	rec := smallRun(t)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, "sim"); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("own output invalid: %v", err)
	}
	if st.Ranks != 4 {
		t.Errorf("ranks = %d, want 4", st.Ranks)
	}
	if st.Slices == 0 || st.Counters == 0 {
		t.Errorf("missing tracks: %+v", st)
	}
	// Every simulated message is delivered, so every send's flow arrow
	// must find its matching recv.
	if sends := rec.Count(obs.KindSend); st.Flows != sends {
		t.Errorf("flows = %d, want one per send (%d)", st.Flows, sends)
	}
}

func TestChromeGolden(t *testing.T) {
	rec := smallRun(t)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, "sim"); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "twostep_2x2.chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from %s (len %d vs %d); rerun with -update and review the diff",
			golden, buf.Len(), len(want))
	}
}

func TestJSONLRoundTripFromRun(t *testing.T) {
	rec := smallRun(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rec.Events) {
		t.Fatalf("round-tripped %d events, recorded %d", n, len(rec.Events))
	}
}

func TestIterSeries(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindBarrier, Rank: 0, Iter: -1, Clock: 5},
		{Kind: obs.KindSend, Rank: 0, Peer: 1, Bytes: 100, Iter: 0, Clock: 10, Dur: 4},
		{Kind: obs.KindSend, Rank: 1, Peer: 0, Bytes: 50, Iter: 0, Clock: 12, Dur: 4},
		{Kind: obs.KindRecv, Rank: 1, Peer: 0, Bytes: 100, Iter: 0, Clock: 20, Dur: 2},
		{Kind: obs.KindWait, Rank: 1, Peer: 0, Iter: 1, Clock: 40, Dur: 8},
		{Kind: obs.KindSend, Rank: 0, Peer: 1, Bytes: 30, Iter: 1, Clock: 50, Dur: 4},
	}
	series := IterSeries(events)
	if len(series) != 2 {
		t.Fatalf("series = %+v, want 2 iterations", series)
	}
	it0, it1 := series[0], series[1]
	if it0.Iter != 0 || it0.Sends != 2 || it0.Recvs != 1 || it0.Bytes != 150 {
		t.Errorf("iter 0 = %+v", it0)
	}
	if it1.Iter != 1 || it1.Sends != 1 || it1.Waits != 1 || it1.WaitTime != 8 {
		t.Errorf("iter 1 = %+v", it1)
	}
	if it0.Rate() <= 0 {
		t.Errorf("iter 0 rate = %v, want positive", it0.Rate())
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [}`,
		"empty":         `{"traceEvents": []}`,
		"unnamed":       `{"traceEvents": [{"ph": "X", "ts": 1}]}`,
		"unknown phase": `{"traceEvents": [{"name": "x", "ph": "Z", "ts": 1}]}`,
		"negative ts":   `{"traceEvents": [{"name": "x", "ph": "X", "ts": -1}]}`,
		"orphan finish": `{"traceEvents": [{"name": "m", "ph": "f", "ts": 1, "id": 9}]}`,
	}
	for label, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	if _, err := ValidateJSONL([]byte("{\"kind\":\"send\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ValidateJSONL([]byte("{\"rank\":3}\n")); err == nil {
		t.Error("kindless event accepted")
	}
}
