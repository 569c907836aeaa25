package analysis

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// simulateBrLin runs the real simulator and returns its measured result.
func simulateBrLin(t *testing.T, spec core.Spec, l int) *sim.Result {
	t.Helper()
	topo := topology.MustMesh2D(spec.Rows, spec.Cols)
	nw, err := network.New(topo, topology.IdentityPlacement(spec.P()), network.ParagonNX())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, l)
	res, err := sim.Run(nw, func(pr *sim.Proc) {
		mine := core.InitialMessage(spec, pr.Rank(), payload)
		core.RunSynced(pr, core.BrLin(), spec, mine)
	}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func specOf(t *testing.T, d dist.Distribution, r, c, s int) core.Spec {
	t.Helper()
	sources, err := d.Sources(r, c, s)
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
}

// TestOracleMatchesSimulatorExactly is the cross-validation: the pure
// oracle and the discrete-event simulator must agree on the per-iteration
// active-processor counts, the total number of sends, and the total bytes.
func TestOracleMatchesSimulatorExactly(t *testing.T) {
	const l = 512
	for _, m := range [][2]int{{1, 16}, {4, 4}, {5, 7}, {10, 10}, {3, 13}} {
		r, c := m[0], m[1]
		p := r * c
		for _, d := range dist.All() {
			for _, s := range []int{1, 2, p / 3, p / 2, p} {
				if s < 1 {
					continue
				}
				spec := specOf(t, d, r, c, s)
				oracle, err := BrLinOracle(spec, l)
				if err != nil {
					t.Fatal(err)
				}
				res := simulateBrLin(t, spec, l)
				measured := metrics.ActiveProfile(res)
				if !reflect.DeepEqual(oracle.Active, measured) {
					t.Fatalf("%s(%d) on %d×%d: oracle active %v, simulator %v", d.Name(), s, r, c, oracle.Active, measured)
				}
				var sends int
				var bytes int64
				for _, ps := range res.Procs {
					sends += ps.Sends
					bytes += ps.SendBytes
				}
				if oracle.Sends != sends {
					t.Fatalf("%s(%d) on %d×%d: oracle sends %d, simulator %d", d.Name(), s, r, c, oracle.Sends, sends)
				}
				if oracle.Bytes != bytes {
					t.Fatalf("%s(%d) on %d×%d: oracle bytes %d, simulator %d", d.Name(), s, r, c, oracle.Bytes, bytes)
				}
			}
		}
	}
}

func TestOracleQuick(t *testing.T) {
	f := func(ru, cu, su uint8, seed int64) bool {
		r := int(ru)%8 + 1
		c := int(cu)%8 + 1
		p := r * c
		s := int(su)%p + 1
		sources, err := dist.Random(seed).Sources(r, c, s)
		if err != nil {
			return false
		}
		spec := core.Spec{Rows: r, Cols: c, Sources: sources, Indexing: topology.SnakeRowMajor}
		o, err := BrLinOracle(spec, 64)
		if err != nil {
			return false
		}
		// Final holder count must be p (everyone ends with messages).
		if len(o.Holders) == 0 {
			return p == 1
		}
		return o.Holders[len(o.Holders)-1] == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFig2PredictionRows(t *testing.T) {
	p, s, l := 256, 64, 1024
	two, err := Fig2Prediction("2-Step", p, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if two.Congestion != 64 || two.Wait != 1 || two.SendRec != 256 {
		t.Fatalf("2-Step row: %+v", two)
	}
	pers, err := Fig2Prediction("PersAlltoAll", p, s, l)
	if err != nil {
		t.Fatal(err)
	}
	if pers.Congestion != 1 || pers.AvgMsgLen != float64(l) || pers.AvgActive != 256 {
		t.Fatalf("PersAlltoAll row: %+v", pers)
	}
	pow2, err := Fig2Prediction("Br_Lin", p, 64, l)
	if err != nil {
		t.Fatal(err)
	}
	non, err := Fig2Prediction("Br_Lin", p, 60, l)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's key contrast: for s=2^l the average message length is
	// larger (O(sL)) than for s≠2^l (O(sL/log p)).
	if pow2.AvgMsgLen <= non.AvgMsgLen {
		t.Fatalf("power-of-two av_msg %.0f not above non-power %.0f", pow2.AvgMsgLen, non.AvgMsgLen)
	}
	if pow2.Formula == "" || non.Formula == "" {
		t.Fatal("missing formulas")
	}
}

func TestFig2PredictionErrors(t *testing.T) {
	if _, err := Fig2Prediction("Br_xy_source", 16, 4, 8); err == nil {
		t.Error("unknown row accepted")
	}
	if _, err := Fig2Prediction("Br_Lin", 16, 0, 8); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := Fig2Prediction("Br_Lin", 16, 17, 8); err == nil {
		t.Error("s>p accepted")
	}
}

func TestGrowthEfficiency(t *testing.T) {
	// Perfect doubling from 2 sources on 16 processors.
	if e := GrowthEfficiency([]int{4, 8, 16, 16}, 2, 16); e != 1 {
		t.Errorf("perfect doubling scored %.2f", e)
	}
	// A stalled first iteration (the paper's power-of-two pathology).
	stalled := GrowthEfficiency([]int{2, 4, 8, 16}, 2, 16)
	if stalled >= 1 {
		t.Errorf("stalled profile scored %.2f", stalled)
	}
	if e := GrowthEfficiency(nil, 2, 16); e != 0 {
		t.Errorf("empty profile scored %.2f", e)
	}
}

// TestIdealBeatsPartneredEfficiency ties the analysis to the dist
// generators: the halving-ideal placement must score higher growth
// efficiency than a halving-partnered placement.
func TestIdealBeatsPartneredEfficiency(t *testing.T) {
	mk := func(sources []int) float64 {
		spec := core.Spec{Rows: 1, Cols: 16, Sources: sources, Indexing: topology.RowMajor}
		o, err := BrLinOracle(spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		return GrowthEfficiency(o.Holders, len(sources), 16)
	}
	idealPos, err := dist.IdealLinear(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ideal := mk(idealPos)
	partnered := mk([]int{0, 8})
	if ideal <= partnered {
		t.Fatalf("ideal efficiency %.2f not above partnered %.2f", ideal, partnered)
	}
}

// TestBrXYOracleMatchesSimulator extends the cross-validation to the
// two-phase algorithms: per-iteration activity, sends and bytes must
// match the simulator exactly for both dimension-order rules.
func TestBrXYOracleMatchesSimulator(t *testing.T) {
	const l = 256
	runXY := func(spec core.Spec, sourceRule bool) *sim.Result {
		t.Helper()
		topo := topology.MustMesh2D(spec.Rows, spec.Cols)
		nw, err := network.New(topo, topology.IdentityPlacement(spec.P()), network.ParagonNX())
		if err != nil {
			t.Fatal(err)
		}
		alg := core.BrXYDim()
		if sourceRule {
			alg = core.BrXYSource()
		}
		payload := make([]byte, l)
		res, err := sim.Run(nw, func(pr *sim.Proc) {
			mine := core.InitialMessage(spec, pr.Rank(), payload)
			core.RunSynced(pr, alg, spec, mine)
		}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, m := range [][2]int{{4, 4}, {3, 7}, {8, 5}, {10, 10}} {
		r, c := m[0], m[1]
		p := r * c
		for _, d := range dist.All() {
			for _, s := range []int{1, p / 3, p} {
				if s < 1 {
					continue
				}
				spec := specOf(t, d, r, c, s)
				for _, sourceRule := range []bool{true, false} {
					oracle, err := BrXYOracle(spec, l, sourceRule)
					if err != nil {
						t.Fatal(err)
					}
					res := runXY(spec, sourceRule)
					measured := metrics.ActiveProfile(res)
					if !reflect.DeepEqual(oracle.Active, measured) {
						t.Fatalf("%s(%d) on %d×%d rule=%v: oracle %v, sim %v",
							d.Name(), s, r, c, sourceRule, oracle.Active, measured)
					}
					var sends int
					var bytes int64
					for _, ps := range res.Procs {
						sends += ps.Sends
						bytes += ps.SendBytes
					}
					if oracle.Sends != sends || oracle.Bytes != bytes {
						t.Fatalf("%s(%d) on %d×%d rule=%v: oracle %d/%d, sim %d/%d",
							d.Name(), s, r, c, sourceRule, oracle.Sends, oracle.Bytes, sends, bytes)
					}
				}
			}
		}
	}
}
