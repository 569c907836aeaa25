package plan

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// routeMaxOps bounds the route-extraction replay. Extraction runs the
// algorithm once on the simulator, so the budget only guards against a
// runaway user-registered algorithm; the registry suite stays far under
// it even at p in the hundreds.
const routeMaxOps = 50_000_000

// linkCollector is a sim tracer that records the directed (src, dst)
// pairs the traced run sent messages over. Simulator tracers run inline
// under the scheduler token, so no locking is needed.
type linkCollector struct {
	links   map[[2]int]struct{}
	barrier bool
}

func (lc *linkCollector) Trace(e obs.Event) {
	switch e.Kind {
	case obs.KindSend:
		if e.Peer >= 0 && e.Peer != e.Rank {
			lc.links[[2]int{e.Rank, e.Peer}] = struct{}{}
		}
	case obs.KindBarrier:
		lc.barrier = true
	}
}

// Routes extracts the directed logical link set the algorithm uses on
// this instance by replaying it once on the deterministic simulator
// with a link-collecting tracer. The replay calls plain alg.Run, as the
// real-byte engines do, not core.RunSynced: the start barrier the
// simulator prices for timing never reaches a live or TCP wire. Because
// every engine drives the same algorithm code over the same spec, the
// replayed schedule's links are exactly the links a live or TCP run
// will traverse — which makes the result a valid sparse connection plan
// (tcp Options.Links, or stpbcast.SessionOptions.Links via RoutesFor).
//
// Only if the schedule itself barriers (Repos_*, between the
// permutation and the inner broadcast) does the extracted set
// additionally include the real-byte engines' dissemination-barrier
// links — rank i sends to (i+2^j) mod p each round — which the
// simulator prices as a single closed-form charge and therefore does
// not emit as sends.
//
// The returned pairs are deduplicated and sorted. They are directed;
// the TCP engine collapses each unordered pair onto one shared
// connection, so the connection count of the plan is at most the pair
// count here.
func Routes(m *machine.Machine, alg core.Algorithm, spec core.Spec, msgLen int) ([][2]int, error) {
	nw, err := m.NewNetwork()
	if err != nil {
		return nil, err
	}
	lc := &linkCollector{links: make(map[[2]int]struct{})}
	coll := core.CollectiveOf(alg)
	_, err = sim.Run(nw, func(pr *sim.Proc) {
		mine := core.InitialLenFor(coll, spec, pr.Rank(), msgLen)
		alg.Run(pr, spec, mine)
	}, sim.Options{Tracer: lc, MaxOps: routeMaxOps})
	if err != nil {
		return nil, fmt.Errorf("plan: route extraction for %s: %w", alg.Name(), err)
	}
	if lc.barrier {
		p := spec.P()
		for k := 1; k < p; k <<= 1 {
			for i := 0; i < p; i++ {
				lc.links[[2]int{i, (i + k) % p}] = struct{}{}
			}
		}
	}
	out := make([][2]int, 0, len(lc.links))
	for l := range lc.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, nil
}
