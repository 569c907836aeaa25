package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/par"
)

// TestEveryAlgorithmDeterministic runs each registered algorithm twice on
// p=64 and requires bit-identical results — elapsed time, per-processor
// stats, iteration breakdowns and network counters. The O(log p)
// scheduler must stay conservative: identical inputs, identical
// simulated execution.
func TestEveryAlgorithmDeterministic(t *testing.T) {
	m := machine.Paragon(8, 8)
	spec, err := SpecFor(m, dist.Equal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.Registry() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			first, err := Measure(m, alg, spec, 2048)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Measure(m, alg, spec, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two runs of %s differ:\n first: %+v\nsecond: %+v", alg.Name(), first, second)
			}
		})
	}
}

// TestEveryCollectiveDeterministic is the p=64 determinism gate for the
// non-broadcast registry entries: every collective's algorithms run
// twice on the 4×4×4-torus T3D and the 8×8 Paragon with per-collective
// specs, requiring bit-identical simulated results.
func TestEveryCollectiveDeterministic(t *testing.T) {
	machines := []*machine.Machine{machine.Paragon(8, 8), machine.T3D(64)}
	for _, m := range machines {
		specFor := func(coll core.Collective) (core.Spec, error) {
			switch coll {
			case core.Reduce, core.AllReduce:
				return SpecFor(m, dist.Equal(), 16)
			case core.Scatter:
				return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: []int{0}}, nil
			default:
				return core.Spec{Rows: m.Rows, Cols: m.Cols, Sources: core.AllRanksSources(m.P())}, nil
			}
		}
		for _, coll := range core.Collectives() {
			if coll == core.Broadcast {
				continue // covered by TestEveryAlgorithmDeterministic
			}
			spec, err := specFor(coll)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range core.RegistryFor(coll) {
				alg := alg
				t.Run(m.Name+"/"+alg.Name(), func(t *testing.T) {
					first, err := Measure(m, alg, spec, 2048)
					if err != nil {
						t.Fatal(err)
					}
					second, err := Measure(m, alg, spec, 2048)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(first, second) {
						t.Errorf("two runs of %s differ", alg.Name())
					}
				})
			}
		}
	}
}

// TestSchedulerMatchesSeedTimings pins the simulated clocks the seed's
// O(p) ready-scan scheduler produced on a spread of machines, algorithms
// and distributions. The heap scheduler orders runnable processors by
// (clock, rank) — exactly the scan's tie-break — so every timing must
// reproduce to the nanosecond. A drift here means the rewrite changed
// simulated semantics, not just speed.
//
// The rows after the first six were captured while the start barrier
// still sat inside each algorithm body. They pin the compositions the
// move to core.RunSynced could have shifted: the unsynchronized
// Indep_1toP, ReposAdaptive on its skip (IdealRows) and reposition (Sq)
// branches, Part_* whose inner runs on a comm.Sub, the discovery
// wrapper, Br_kport4, Bcast_Circulant and every non-broadcast schedule.
func TestSchedulerMatchesSeedTimings(t *testing.T) {
	fixtures := []struct {
		m          *machine.Machine
		alg, dist  string
		s, msgLen  int
		elapsed    int64 // Result.Elapsed in ns
		sumFinish  int64 // sum over procs of Finish
		sumWaiting int64 // sum over procs of WaitTime
	}{
		{machine.Paragon(8, 8), "Br_Lin", "E", 16, 2048, 2793494, 165112368, 70780080},
		{machine.Paragon(10, 10), "Br_xy_source", "Cr", 30, 4096, 9575679, 794242490, 346348650},
		{machine.Paragon(16, 16), "PersAlltoAll", "Dr", 64, 1024, 12103603, 3071733438, 1894555838},
		{machine.T3D(128), "RD_AllGather", "E", 32, 4096, 6630102, 691213132, 179265100},
		{machine.T3D(64), "2-Step", "Sq", 16, 8192, 11553829, 564874824, 498466744},
		{machine.Paragon(16, 16), "Repos_xy_source", "Sq", 75, 6144, 21648828, 5270015707, 1086882379},
		{machine.Paragon(10, 10), "Indep_1toP", "E", 10, 2048, 4502448, 431409752, 346309352},
		{machine.Paragon(16, 16), "ReposAdaptive_Br_xy_source", "IdealRows", 64, 6144, 17697091, 4296357056, 901410496},
		{machine.Paragon(16, 16), "ReposAdaptive_Br_xy_source", "Sq", 64, 6144, 18682703, 4548673728, 913088384},
		{machine.Paragon(10, 10), "Part_xy_source", "Cr", 30, 4096, 7511554, 658425861, 176219021},
		{machine.Paragon(8, 8), "Part_Lin", "E", 16, 2048, 3029548, 174328232, 63586544},
		{machine.Paragon(16, 16), "Discover+Br_Lin", "Cr", 32, 4096, 12268195, 2659313852, 1192743228},
		{machine.Paragon(8, 8), "Br_kport4", "Dr", 16, 2048, 1982146, 117747349, 13875061},
		{machine.T3D(64), "Bcast_Circulant", "E", 16, 4096, 3025450, 159693920, 24744416},
		{machine.Paragon(8, 8), "Red_Tree", "E", 16, 2048, 945512, 26547090, 2377050},
		{machine.T3D(64), "AllRed_RecDouble", "E", 16, 2048, 739595, 43884296, 4947720},
		{machine.Paragon(8, 8), "AllRed_RedBcast", "E", 16, 2048, 1580044, 88973952, 59388432},
		{machine.T3D(64), "Scatter_Binomial", "E", 1, 1024, 2402730, 91144512, 72802488},
		{machine.Paragon(8, 8), "Scatter_Direct", "E", 1, 1024, 2396771, 90363613, 65886373},
		{machine.Paragon(8, 8), "Ag_Ring", "E", 64, 512, 4491395, 287446800, 44367120},
		{machine.T3D(64), "Ag_RecDouble", "E", 64, 512, 1446554, 90305760, 10999008},
		{machine.T3D(64), "A2A_Pairwise", "E", 64, 256, 2174262, 139056480, 12863328},
		{machine.T3D(64), "A2A_JungSakho", "E", 64, 256, 1662778, 105278800, 12530512},
	}
	dists := map[string]dist.Distribution{
		"E":         dist.Equal(),
		"Cr":        dist.Cross(),
		"Dr":        dist.DiagRight(),
		"Sq":        dist.Square(),
		"IdealRows": dist.IdealRows(),
	}
	// Wrappers outside the registry, by the names they report.
	composed := map[string]core.Algorithm{
		"ReposAdaptive_Br_xy_source": core.ReposAdaptive(core.BrXYSource(), 0.1),
		"Discover+Br_Lin":            core.WithDiscovery(core.BrLin()),
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.m.Name+"/"+fx.alg+"/"+fx.dist, func(t *testing.T) {
			alg, ok := composed[fx.alg]
			if !ok {
				var err error
				if alg, err = core.ByName(fx.alg); err != nil {
					t.Fatal(err)
				}
			}
			spec, err := SpecFor(fx.m, dists[fx.dist], fx.s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Measure(fx.m, alg, spec, fx.msgLen)
			if err != nil {
				t.Fatal(err)
			}
			var sumFinish, sumWait int64
			for _, pr := range res.Procs {
				sumFinish += int64(pr.Finish)
				sumWait += int64(pr.WaitTime)
			}
			if int64(res.Elapsed) != fx.elapsed {
				t.Errorf("Elapsed = %d ns, seed scheduler produced %d", int64(res.Elapsed), fx.elapsed)
			}
			if sumFinish != fx.sumFinish {
				t.Errorf("sum(Finish) = %d, seed scheduler produced %d", sumFinish, fx.sumFinish)
			}
			if sumWait != fx.sumWaiting {
				t.Errorf("sum(WaitTime) = %d, seed scheduler produced %d", sumWait, fx.sumWaiting)
			}
		})
	}
}

// TestSerialAndParallelHarnessIdentical runs the same experiment grid
// with the worker pool pinned to 1 and to 4 and requires byte-identical
// formatted output — the parallel harness's core guarantee.
func TestSerialAndParallelHarnessIdentical(t *testing.T) {
	render := func(limit int) string {
		prev := par.SetLimit(limit)
		defer par.SetLimit(prev)
		e, err := ByID("ablation-indexing")
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s.Format()
	}
	serial := render(1)
	parallel4 := render(4)
	if serial != parallel4 {
		t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel4)
	}
}
