package core

import (
	"repro/internal/comm"
)

// dimOrder says which mesh dimension a Br_xy algorithm processes first.
type dimOrder int

const (
	rowsFirst dimOrder = iota
	colsFirst
)

// maxPerLine returns the maximum number of sources in any row (max_r) and
// any column (max_c) of the spec's mesh.
func maxPerLine(spec Spec) (maxR, maxC int) {
	perRow := make([]int, spec.Rows)
	perCol := make([]int, spec.Cols)
	for _, src := range spec.Sources {
		perRow[src/spec.Cols]++
		perCol[src%spec.Cols]++
	}
	for _, v := range perRow {
		if v > maxR {
			maxR = v
		}
	}
	for _, v := range perCol {
		if v > maxC {
			maxC = v
		}
	}
	return maxR, maxC
}

// brXY runs Br_Lin one dimension at a time: first within every line of the
// chosen first dimension, then within every line of the other. After the
// first phase every processor of a non-empty first-dimension line holds
// that line's combined bundle; the second phase broadcasts the per-line
// bundles across the other dimension, completing the s-to-p broadcast.
type brXY struct {
	name string
	// order decides the first dimension from the spec.
	order func(Spec) dimOrder
}

func (a brXY) Name() string { return a.name }

func (a brXY) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	rank := c.Rank()
	row, col := rank/spec.Cols, rank%spec.Cols
	first := a.order(spec)

	// rowLine and colLine build this processor's two lines.
	rowLine := func() []int {
		line := make([]int, spec.Cols)
		for j := range line {
			line[j] = row*spec.Cols + j
		}
		return line
	}
	colLine := func() []int {
		line := make([]int, spec.Rows)
		for i := range line {
			line[i] = i*spec.Cols + col
		}
		return line
	}

	// Phase 1: broadcast within each line of the first dimension. Holder
	// flags are the per-line source flags.
	var phase1Line []int
	var myPos1 int
	if first == rowsFirst {
		phase1Line, myPos1 = rowLine(), col
	} else {
		phase1Line, myPos1 = colLine(), row
	}
	holds1 := make([]bool, len(phase1Line))
	for i, r := range phase1Line {
		holds1[i] = spec.IsSource(r)
	}
	iters1 := lineIters(len(phase1Line))
	bundle := runLine(c, phase1Line, holds1, myPos1, mine, 0)

	// Phase 2: every processor of a line that contained any source now
	// holds that line's bundle. Compute which first-dimension lines were
	// non-empty — identical on every processor — and broadcast along the
	// second dimension.
	var nonEmpty []bool
	if first == rowsFirst {
		nonEmpty = make([]bool, spec.Rows)
		for _, src := range spec.Sources {
			nonEmpty[src/spec.Cols] = true
		}
	} else {
		nonEmpty = make([]bool, spec.Cols)
		for _, src := range spec.Sources {
			nonEmpty[src%spec.Cols] = true
		}
	}
	var phase2Line []int
	var myPos2 int
	if first == rowsFirst {
		phase2Line, myPos2 = colLine(), row
	} else {
		phase2Line, myPos2 = rowLine(), col
	}
	holds2 := make([]bool, len(phase2Line))
	for i := range holds2 {
		holds2[i] = nonEmpty[i]
	}
	return runLine(c, phase2Line, holds2, myPos2, bundle, iters1)
}

// BrXYSource returns Algorithm Br_xy_source: the first dimension is the
// one whose lines contain fewer sources (rows first iff max_r < max_c), so
// the early iterations move small messages and grow the holder set fast.
func BrXYSource() Algorithm {
	return brXY{
		name: "Br_xy_source",
		order: func(spec Spec) dimOrder {
			maxR, maxC := maxPerLine(spec)
			if maxR < maxC {
				return rowsFirst
			}
			return colsFirst
		},
	}
}

// BrXYDim returns Algorithm Br_xy_dim: the first dimension is chosen from
// the machine dimensions only (rows first iff r ≥ c), ignoring the source
// positions — the paper's distribution-oblivious comparison point.
func BrXYDim() Algorithm {
	return brXY{
		name: "Br_xy_dim",
		order: func(spec Spec) dimOrder {
			if spec.Rows >= spec.Cols {
				return rowsFirst
			}
			return colsFirst
		},
	}
}
