package core

import (
	"repro/internal/comm"
)

// The paper observes that repositioning costs 1–2 ms even when the input
// distribution is already ideal, and notes: "Our current implementations
// do not check whether the initial distribution is close to an ideal
// distribution and always reposition." ReposAdaptive supplies that check.
//
// The decision is made from the deterministic holder-growth replay of the
// halving pattern (the same bookkeeping every processor already performs):
// the spec's growth efficiency — how close the holder count comes to
// doubling every iteration — is compared between the initial distribution
// and the algorithm's ideal target. Every processor computes the identical
// decision from the spec alone, so no extra communication is needed.
type reposAdaptive struct {
	inner Algorithm
	// margin is the efficiency improvement (absolute, 0..1) that must be
	// exceeded before the permutation is considered worthwhile.
	margin float64
}

// ReposAdaptive returns a repositioning algorithm that first checks
// whether the initial distribution is already close to ideal and skips
// the permutation unless repositioning would improve the halving growth
// efficiency by strictly more than margin (e.g. 0.1); a gain exactly
// equal to the margin still skips.
func ReposAdaptive(inner Algorithm, margin float64) Algorithm {
	return reposAdaptive{inner: inner, margin: margin}
}

func (a reposAdaptive) Name() string { return "ReposAdaptive_" + a.inner.Name() }

// GrowthEfficiency is the exported form of the ReposAdaptive decision
// metric: how close the spec's halving replay comes to doubling the
// holder count every iteration (1.0 = perfect doubling until saturation).
// The planner's analytic tier ranks distributions with it.
func GrowthEfficiency(spec Spec) float64 { return growthEfficiency(spec) }

// growthEfficiency replays the snake-order halving pattern over the given
// source positions and scores how close the holder counts come to doubling
// each iteration (1.0 = perfect doubling until saturation). It is the
// decision metric of ReposAdaptive; internal/analysis exposes richer
// variants for offline study.
func growthEfficiency(spec Spec) float64 {
	p := spec.P()
	s := spec.S()
	if s >= p {
		return 1
	}
	holds := spec.holderFlags()
	// Replay in rank space (row-major); the indexing detail matters less
	// for the decision than the pairing structure, and using one fixed
	// order keeps the decision identical for every inner algorithm.
	type seg struct{ lo, n int }
	segs := []seg{{0, p}}
	cur := s
	achieved, ideal := 0.0, 0.0
	for {
		split := false
		for _, g := range segs {
			if g.n > 1 {
				split = true
			}
		}
		if !split {
			break
		}
		var next []seg
		for _, g := range segs {
			if g.n <= 1 {
				continue
			}
			h := (g.n + 1) / 2
			for i := 0; i < g.n-h; i++ {
				a, b := g.lo+i, g.lo+i+h
				m := holds[a] || holds[b]
				holds[a], holds[b] = m, m
			}
			if g.n%2 == 1 {
				u, tgt := g.lo+h-1, g.lo+g.n-1
				if holds[u] {
					holds[tgt] = true
				}
			}
			next = append(next, seg{g.lo, h}, seg{g.lo + h, g.n - h})
		}
		segs = next
		count := 0
		for _, hl := range holds {
			if hl {
				count++
			}
		}
		want := cur * 2
		if want > p {
			want = p
		}
		if cur < p {
			ideal += float64(want - cur)
			if count > cur {
				achieved += float64(count - cur)
			}
		}
		cur = count
	}
	if ideal == 0 {
		return 1
	}
	e := achieved / ideal
	if e > 1 {
		e = 1
	}
	return e
}

// idealTargets returns the inner algorithm's ideal source positions on
// spec and whether permuting the sources onto them is worthwhile: the
// growth-efficiency gain must exceed the margin, so a gain equal to it
// skips too.
func (a reposAdaptive) idealTargets(spec Spec) ([]int, bool) {
	gen := IdealFor(a.inner, spec.Rows, spec.Cols)
	ideal, err := gen.Sources(spec.Rows, spec.Cols, spec.S())
	if err != nil {
		panic(err)
	}
	idealSpec := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: ideal, Indexing: spec.Indexing}
	return ideal, growthEfficiency(idealSpec)-growthEfficiency(spec) > a.margin
}

// SyncedStart implements StartSyncer: a run that skips the permutation
// is its inner algorithm's run, so it starts as the inner does.
func (a reposAdaptive) SyncedStart(spec Spec) bool {
	if spec.Validate(spec.P()) != nil {
		return true // Run rejects the spec
	}
	if _, reposition := a.idealTargets(spec); reposition {
		return true
	}
	return SyncedStart(a.inner, spec)
}

func (a reposAdaptive) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	ideal, reposition := a.idealTargets(spec)
	if !reposition {
		// Close enough to ideal: skip the permutation.
		return a.inner.Run(c, spec, mine)
	}
	targets := repositionPermutation(spec, ideal)
	bundle := applyReposition(c, spec, targets, mine)
	inner := Spec{Rows: spec.Rows, Cols: spec.Cols, Sources: targets, Indexing: spec.Indexing}
	return RunSynced(c, a.inner, inner, bundle)
}
