package core

import (
	"fmt"

	"repro/internal/comm"
)

// brDims generalizes Br_xy to a d-dimensional logical grid: Br_Lin runs
// within every line of one dimension after another, in a caller-chosen
// order. With extents {r, c} this is exactly the Br_xy family; with three
// extents it is the natural algorithm for the T3D's logical 3-D grid —
// the obvious extension the paper leaves open because the T3D's placement
// was out of user control (our machine model makes it expressible).
//
// Ranks are mixed-radix over the extents with the last dimension varying
// fastest (the row-major generalization): for extents {e0, e1, e2},
// rank = (x0·e1 + x1)·e2 + x2. A "line along dimension d" holds every
// coordinate fixed except x_d. Before dimension d is processed, a
// processor holds messages iff some source matches its coordinates on
// every still-unprocessed dimension — the multi-dimensional form of
// Br_xy's non-empty-row rule, computed identically everywhere.
type brDims struct {
	extents []int
	order   []int
}

// BrDims returns the dimension-by-dimension broadcast over a logical grid
// with the given extents, processing dimensions in the given order (a
// permutation of 0..len(extents)-1). The product of extents must equal
// the machine size; spec.Rows×spec.Cols is ignored beyond that check.
func BrDims(extents, order []int) Algorithm {
	return brDims{extents: append([]int(nil), extents...), order: append([]int(nil), order...)}
}

func (a brDims) Name() string { return fmt.Sprintf("Br_dims%v", a.extents) }

// coordsOf decomposes a rank into grid coordinates.
func (a brDims) coordsOf(rank int) []int {
	d := len(a.extents)
	out := make([]int, d)
	for i := d - 1; i >= 0; i-- {
		out[i] = rank % a.extents[i]
		rank /= a.extents[i]
	}
	return out
}

// rankOf composes grid coordinates into a rank.
func (a brDims) rankOf(coords []int) int {
	rank := 0
	for i, x := range coords {
		rank = rank*a.extents[i] + x
	}
	return rank
}

func (a brDims) validate(p int) error {
	if len(a.extents) == 0 {
		return fmt.Errorf("core: Br_dims with no extents")
	}
	prod := 1
	for _, e := range a.extents {
		if e <= 0 {
			return fmt.Errorf("core: Br_dims extent %d", e)
		}
		prod *= e
	}
	if prod != p {
		return fmt.Errorf("core: Br_dims extents %v cover %d of %d processors", a.extents, prod, p)
	}
	if len(a.order) != len(a.extents) {
		return fmt.Errorf("core: Br_dims order %v for %d dimensions", a.order, len(a.extents))
	}
	seen := make([]bool, len(a.extents))
	for _, d := range a.order {
		if d < 0 || d >= len(a.extents) || seen[d] {
			return fmt.Errorf("core: Br_dims order %v is not a permutation", a.order)
		}
		seen[d] = true
	}
	return nil
}

func (a brDims) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	if err := a.validate(c.Size()); err != nil {
		panic(err)
	}
	myCoords := a.coordsOf(c.Rank())
	bundle := mine
	processed := make([]bool, len(a.extents))
	iterBase := 0
	for _, dim := range a.order {
		// holdsAt reports whether the processor at the given coordinates
		// holds messages before this phase: some source must match it on
		// every unprocessed dimension other than dim itself.
		holdsAt := func(coords []int) bool {
			for _, src := range spec.Sources {
				sc := a.coordsOf(src)
				match := true
				for d := range a.extents {
					if d == dim || processed[d] {
						continue
					}
					if sc[d] != coords[d] {
						match = false
						break
					}
				}
				if match && sc[dim] == coords[dim] {
					return true
				}
			}
			return false
		}
		line := make([]int, a.extents[dim])
		holds := make([]bool, a.extents[dim])
		coords := append([]int(nil), myCoords...)
		for pos := 0; pos < a.extents[dim]; pos++ {
			coords[dim] = pos
			line[pos] = a.rankOf(coords)
			holds[pos] = holdsAt(coords)
		}
		bundle = runLine(c, line, holds, myCoords[dim], bundle, iterBase)
		iterBase += lineIters(a.extents[dim])
		processed[dim] = true
	}
	return bundle
}
