package core

import (
	"repro/internal/collective"
	"repro/internal/comm"
)

// The reduction algorithms reuse the broadcast machinery: contributions
// travel as ordinary bundles, ReduceBundle folds them under the byte-wise
// sum (charged through the same combine hook the 1996 message-combining
// algorithms use), and the communication skeletons are the binomial tree
// and recursive doubling the broadcast family already prices. The root of
// a rooted reduction is the first source.

// reduceTree folds the sources' contributions at root along the binomial
// tree over relative ranks and returns the reduced bundle at root, an
// empty bundle everywhere else. Non-sources contribute the empty bundle —
// the identity of the byte-sum — so every processor participates in the
// tree regardless of the source set.
func reduceTree(c comm.Comm, root int, mine comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	rel := (rank - root + p) % p
	real := func(r int) int { return (r + root) % p }
	acc := ReduceBundle(mine)
	iter := 0
	for mask := 1; mask < p; mask <<= 1 {
		comm.MarkIter(c, iter)
		iter++
		if rel&mask != 0 {
			c.Send(real(rel-mask), acc)
			return comm.Message{}
		}
		if rel+mask < p {
			m := c.Recv(real(rel + mask))
			comm.ChargeCombine(c, m.Len())
			acc = ReduceBundle(acc.Append(m))
		}
	}
	return acc
}

// redTree is Red_Tree: the binomial-tree reduction to the root (the first
// source). The mirror image of the one-to-all broadcast of Section 2 —
// the same halving tree walked leaf-to-root with a fold at every merge.
type redTree struct{}

// RedTree returns the binomial-tree reduction.
func RedTree() Algorithm { return redTree{} }

func (redTree) Name() string { return "Red_Tree" }

func (redTree) Collective() Collective { return Reduce }

func (redTree) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	return reduceTree(c, spec.Sources[0], mine)
}

// allRedRecDouble is AllRed_RecDouble: recursive-doubling all-reduce. In
// round k every processor exchanges its partial fold with the partner at
// XOR-distance 2^k, so after ⌈log2 p⌉ rounds every processor holds the
// full reduction — the classic butterfly, log-depth with no broadcast
// phase. Power-of-two machines only; other sizes fall back to
// reduce-then-broadcast (same result, one extra log factor of latency).
type allRedRecDouble struct{}

// AllRedRecDouble returns the recursive-doubling all-reduce.
func AllRedRecDouble() Algorithm { return allRedRecDouble{} }

func (allRedRecDouble) Name() string { return "AllRed_RecDouble" }

func (allRedRecDouble) Collective() Collective { return AllReduce }

func (allRedRecDouble) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	p := c.Size()
	rank := c.Rank()
	if p == 1 {
		return ReduceBundle(mine)
	}
	if p&(p-1) != 0 {
		root := spec.Sources[0]
		acc := reduceTree(c, root, mine)
		return collective.Bcast(c, root, acc)
	}
	acc := ReduceBundle(mine)
	iter := 0
	for dist := 1; dist < p; dist <<= 1 {
		comm.MarkIter(c, iter)
		iter++
		m := comm.Exchange(c, rank^dist, acc)
		comm.ChargeCombine(c, m.Len())
		acc = ReduceBundle(acc.Append(m))
	}
	return acc
}

// allRedRedBcast is AllRed_RedBcast: binomial-tree reduction to the root
// followed by the binomial one-to-all broadcast of the result — the
// composition a 1996-era library would write, correct for every p, twice
// the tree depth of the butterfly.
type allRedRedBcast struct{}

// AllRedRedBcast returns the reduce-then-broadcast all-reduce.
func AllRedRedBcast() Algorithm { return allRedRedBcast{} }

func (allRedRedBcast) Name() string { return "AllRed_RedBcast" }

func (allRedRedBcast) Collective() Collective { return AllReduce }

func (allRedRedBcast) Run(c comm.Comm, spec Spec, mine comm.Message) comm.Message {
	if err := spec.Validate(c.Size()); err != nil {
		panic(err)
	}
	root := spec.Sources[0]
	acc := reduceTree(c, root, mine)
	return collective.Bcast(c, root, acc)
}
