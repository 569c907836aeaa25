package core

import (
	"repro/internal/collective"
	"repro/internal/comm"
)

// twoStep is Algorithm 2-Step: an s-to-one gather at processor 0 followed
// by a one-to-all broadcast of the combined bundle along the binomial
// halving tree. The gather concentrates all traffic at P0 — the congestion
// hot spot the paper blames for its poor Paragon performance.
type twoStep struct{}

// TwoStep returns Algorithm 2-Step (the NX baseline; the paper's
// MPI_AllGather is the same pattern run under the MPI cost profile).
func TwoStep() Algorithm { return twoStep{} }

func (twoStep) Name() string { return "2-Step" }

func (twoStep) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	comm.MarkIter(c, 0)
	comm.MarkPhase(c, "gather")
	gathered := collective.Gather(c, 0, spec.Sources, mine)
	comm.MarkIter(c, 1)
	comm.MarkPhase(c, "broadcast")
	return collective.Bcast(c, 0, gathered)
}

// persAlltoAll is Algorithm PersAlltoAll: every source delivers its
// message individually to every processor through p−1 pairwise
// permutations. No combining, no waiting on intermediate hops — but s·(p−1)
// messages, which saturates the Paragon's mesh and wins on the T3D's
// bandwidth-rich torus.
type persAlltoAll struct{}

// PersAlltoAll returns Algorithm PersAlltoAll (the paper's MPI_Alltoall is
// the same pattern run under the MPI cost profile).
func PersAlltoAll() Algorithm { return persAlltoAll{} }

func (persAlltoAll) Name() string { return "PersAlltoAll" }

func (persAlltoAll) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	return collective.AlltoallPersonalized(c, spec.Sources, mine)
}

// ringAllGather broadcasts by a ring all-gather over all p processors
// (p−1 neighbour steps, empty bundles for non-sources). This is how a
// modern MPI library would serve s-to-p broadcasting through
// MPI_Allgatherv; it is included as an ablation beyond the paper's
// algorithm set.
type ringAllGather struct{}

// RingAllGather returns the ring all-gather ablation algorithm.
func RingAllGather() Algorithm { return ringAllGather{} }

func (ringAllGather) Name() string { return "Ring_AllGather" }

func (ringAllGather) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	return collective.AllgatherRing(c, mine)
}

// rdAllGather broadcasts with the recursive-doubling all-gather, the
// algorithm inside MPICH's MPI_Allgatherv. The paper's measured T3D
// MPI_AllGather curves (distribution sensitivity with equal best,
// more-sources-faster at fixed volume, convergence toward Alltoall as
// s→p) match this collective rather than the gather+broadcast the paper's
// text describes; the T3D experiments run both and EXPERIMENTS.md
// discusses the discrepancy.
type rdAllGather struct{}

// RDAllGather returns the recursive-doubling all-gather algorithm.
func RDAllGather() Algorithm { return rdAllGather{} }

func (rdAllGather) Name() string { return "RD_AllGather" }

func (rdAllGather) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	return collective.AllgatherRecDoubling(c, spec.Sources, mine)
}
