package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/tcp"
)

// TestRealEnginesRunWithoutStartBarrier: the real-byte engines call Run
// directly, so no registry algorithm may open with a barrier there. The
// only dissemination-barrier tokens left are the repositioning
// schedules' phase barrier between the permutation and the inner
// broadcast: p·⌈log2 p⌉ sends at p=16. Every run must still deliver.
func TestRealEnginesRunWithoutStartBarrier(t *testing.T) {
	const rows, cols, size = 4, 4, 64
	p := rows * cols
	phaseBarrier := map[string]bool{"Repos_Lin": true, "Repos_xy_source": true, "Repos_xy_dim": true}

	lm, err := live.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	tm, err := tcp.NewMachine(p, tcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	engines := []struct {
		name string
		run  func(fn func(comm.Comm)) (*rt.Result, error)
	}{
		{"live", func(fn func(comm.Comm)) (*rt.Result, error) {
			return lm.Run(live.Options{RecvTimeout: 10 * time.Second}, func(pr *live.Proc) { fn(pr) })
		}},
		{"tcp", func(fn func(comm.Comm)) (*rt.Result, error) {
			return tm.Run(tcp.Options{RecvTimeout: 10 * time.Second}, func(pr *tcp.Proc) { fn(pr) })
		}},
	}

	for _, coll := range Collectives() {
		spec := collSpecs(coll, rows, cols)[0]
		if coll == Broadcast {
			spec = makeSpec(t, dist.Equal(), rows, cols, 4)
		}
		payload := collPayload(coll, p, size)
		for _, alg := range RegistryFor(coll) {
			want := 0
			if phaseBarrier[alg.Name()] {
				want = p * 4 // ⌈log2 16⌉ rounds
			}
			for _, e := range engines {
				label := fmt.Sprintf("%s/%s", e.name, alg.Name())
				out := make([]comm.Message, p)
				res, err := e.run(func(c comm.Comm) {
					out[c.Rank()] = alg.Run(c, spec, InitialFor(coll, spec, c.Rank(), payload))
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				verifyCollective(t, label, coll, spec, out, size)
				sends := 0
				for _, ps := range res.Procs {
					sends += ps.BarrierSends
				}
				if sends != want {
					t.Errorf("%s: %d barrier sends, want %d", label, sends, want)
				}
			}
		}
	}
}

// TestSyncedStart pins which runs RunSynced opens with the start
// barrier: every algorithm but Indep_1toP, and ReposAdaptive exactly as
// the branch it takes — its inner's answer when it skips the
// permutation, always when it repositions.
func TestSyncedStart(t *testing.T) {
	ideal := makeSpec(t, dist.IdealRows(), 16, 16, 64) // ReposAdaptive skips
	square := makeSpec(t, dist.Square(), 16, 16, 64)   // ReposAdaptive repositions
	cases := []struct {
		alg  Algorithm
		spec Spec
		want bool
	}{
		{BrLin(), ideal, true},
		{ReposXYSource(), ideal, true},
		{WithDiscovery(Indep1toP()), ideal, true},
		{Indep1toP(), ideal, false},
		{ReposAdaptive(BrXYSource(), 0.1), ideal, true},
		{ReposAdaptive(BrXYSource(), 0.1), square, true},
		{ReposAdaptive(Indep1toP(), 0.1), ideal, false},
		{ReposAdaptive(Indep1toP(), 0.1), square, true},
	}
	for _, tc := range cases {
		if got := SyncedStart(tc.alg, tc.spec); got != tc.want {
			t.Errorf("SyncedStart(%s, %v) = %v, want %v", tc.alg.Name(), tc.spec.Sources[:4], got, tc.want)
		}
	}
}
