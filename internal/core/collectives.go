package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/comm"
)

// Collective names one collective communication pattern. The registry
// holds algorithms for several collectives; the broadcast family is the
// paper's suite, the others are the modern extensions (reduction,
// scatter/allgather, all-to-all) that reuse the same combine, trace and
// autotune machinery.
type Collective string

// The implemented collectives.
const (
	// Broadcast is s-to-p broadcasting: s sources each hold a message
	// that must reach all p processors (the paper's problem).
	Broadcast Collective = "Broadcast"
	// Reduce folds the sources' contributions into one result at the
	// root (the first source) under the byte-wise sum mod 256.
	Reduce Collective = "Reduce"
	// AllReduce is Reduce delivered to every processor.
	AllReduce Collective = "AllReduce"
	// Scatter splits the root's p per-destination chunks so that rank r
	// ends with exactly chunk r.
	Scatter Collective = "Scatter"
	// AllGather concatenates every rank's contribution on every rank.
	AllGather Collective = "AllGather"
	// AllToAll is the personalized exchange: every rank holds p chunks,
	// one per destination, and ends with the p chunks addressed to it.
	AllToAll Collective = "AllToAll"
)

// Collectives returns every implemented collective, broadcast first.
func Collectives() []Collective {
	return []Collective{Broadcast, Reduce, AllReduce, Scatter, AllGather, AllToAll}
}

// ParseCollective maps a (case-insensitive) collective name to its
// canonical value. The empty string means Broadcast, so configurations
// written before the collective axis existed keep their meaning.
func ParseCollective(name string) (Collective, error) {
	if name == "" {
		return Broadcast, nil
	}
	for _, coll := range Collectives() {
		if strings.EqualFold(name, string(coll)) {
			return coll, nil
		}
	}
	return "", fmt.Errorf("core: unknown collective %q (want Broadcast, Reduce, AllReduce, Scatter, AllGather or AllToAll)", name)
}

// Caps is a collective's capability row: what the configuration surface
// may set for it and which runtimes can verify it. The facade validates
// Config against this table.
type Caps struct {
	// TakesSources: the source set (Sources/SourceRanks/Distribution)
	// selects which ranks contribute. When false, every rank
	// participates and the source fields must stay unset.
	TakesSources bool
	// SingleSource: exactly one source (the root) is allowed.
	SingleSource bool
	// Combining: the result is an element-wise reduction of the
	// contributions (one ReducedOrigin part) rather than a concatenation
	// of the original messages.
	Combining bool
	// Chunked: initial bundles carry p per-destination chunks, so a
	// payload supplies p·L bytes rather than L.
	Chunked bool
	// Cluster: supported on multi-process cluster sessions, whose
	// workers verify results locally. Only full broadcasts are verified
	// there today, so the other collectives are rejected.
	Cluster bool
}

// Caps returns the collective's capability row.
func (c Collective) Caps() Caps {
	switch c {
	case Broadcast:
		return Caps{TakesSources: true, Cluster: true}
	case Reduce:
		return Caps{TakesSources: true, Combining: true}
	case AllReduce:
		return Caps{TakesSources: true, Combining: true}
	case Scatter:
		return Caps{TakesSources: true, SingleSource: true, Chunked: true}
	case AllGather:
		return Caps{}
	case AllToAll:
		return Caps{Chunked: true}
	}
	return Caps{}
}

// CollectiveAlgorithm is an Algorithm tagged with the collective it
// implements. Untagged algorithms are broadcasts (the paper's suite
// predates the collective axis).
type CollectiveAlgorithm interface {
	Algorithm
	// Collective names the pattern the algorithm implements.
	Collective() Collective
}

// CollectiveOf returns the collective an algorithm implements:
// its Collective() tag, or Broadcast for untagged algorithms.
func CollectiveOf(a Algorithm) Collective {
	if ca, ok := a.(CollectiveAlgorithm); ok {
		return ca.Collective()
	}
	return Broadcast
}

// ReducedOrigin is the Origin of a part produced by folding contributions
// under a reduction (Reduce/AllReduce results). It can never collide with
// a rank.
const ReducedOrigin = -1

// ReduceBundle folds every part of m into a single ReducedOrigin part
// under the byte-wise sum mod 256 (commutative and associative, so every
// reduction tree computes the same bytes). Length-only parts fold to the
// maximum length, which is how the simulator prices a reduced bundle. An
// empty message stays empty — the identity contribution of a
// non-source rank.
func ReduceBundle(m comm.Message) comm.Message {
	return foldParts(m.Tag, m.Parts, nil)
}

// foldBundles is ReduceBundle(acc.Append(m)) without building the
// joined parts slice: the per-round combine of the reduction schedules.
func foldBundles(acc, m comm.Message) comm.Message {
	return foldParts(acc.Tag, acc.Parts, m.Parts)
}

// foldParts folds the parts of a followed by those of b. The sum starts
// as a copy of the first data part and every further data part is added
// into it a word at a time (addBytes); the result is a fresh buffer that
// aliases no input, since inputs may be bundles other ranks still hold.
func foldParts(tag int, a, b []comm.Part) comm.Message {
	if len(a)+len(b) == 0 {
		return comm.Message{Tag: tag}
	}
	groups := [2][]comm.Part{a, b}
	maxLen := 0
	var first []byte
	for _, ps := range groups {
		for _, p := range ps {
			if p.Len() > maxLen {
				maxLen = p.Len()
			}
			if first == nil && p.Data != nil {
				first = p.Data
			}
		}
	}
	// Data and Size are mutually exclusive on a Part (engines ignore and
	// may drop Size when Data is set), so the fold sets exactly one.
	out := comm.Part{Origin: ReducedOrigin}
	if first == nil {
		out.Size = maxLen
		return comm.Message{Tag: tag, Parts: []comm.Part{out}}
	}
	sum := make([]byte, maxLen)
	copy(sum, first)
	skip := true
	for _, ps := range groups {
		for _, p := range ps {
			if p.Data == nil {
				continue
			}
			if skip {
				skip = false
				continue
			}
			addBytes(sum, p.Data)
		}
	}
	out.Data = sum
	return comm.Message{Tag: tag, Parts: []comm.Part{out}}
}

// laneHi holds the top bit of every byte lane of a word.
const laneHi = 0x8080808080808080

// laneAdd adds a and b as eight independent byte lanes mod 256: the low
// seven bits of each lane add without reaching the next lane, and the
// top bit is their carry xor the two top bits.
func laneAdd(a, b uint64) uint64 {
	return ((a &^ laneHi) + (b &^ laneHi)) ^ ((a ^ b) & laneHi)
}

// addBytes adds src into dst byte-wise mod 256, eight bytes per step.
// len(src) must not exceed len(dst). Words go through encoding/binary
// rather than unsafe casts, so it is the same on every word size and
// alignment; the compiler turns each Uint64/PutUint64 into one load or
// store where the target allows.
func addBytes(dst, src []byte) {
	n := len(src)
	dst = dst[:n]
	le := binary.LittleEndian
	i := 0
	for ; i+32 <= n; i += 32 {
		d, s := dst[i:i+32:i+32], src[i:i+32:i+32]
		le.PutUint64(d[0:], laneAdd(le.Uint64(d[0:]), le.Uint64(s[0:])))
		le.PutUint64(d[8:], laneAdd(le.Uint64(d[8:]), le.Uint64(s[8:])))
		le.PutUint64(d[16:], laneAdd(le.Uint64(d[16:]), le.Uint64(s[16:])))
		le.PutUint64(d[24:], laneAdd(le.Uint64(d[24:]), le.Uint64(s[24:])))
	}
	for ; i+8 <= n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		le.PutUint64(d, laneAdd(le.Uint64(d), le.Uint64(s)))
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// EncodeA2AOrigin packs an all-to-all chunk's (origin, destination) pair
// into the part's Origin field for transit: origin·p + dest. The routing
// steps read the destination with DecodeA2ADest; FinalizeAlltoall
// restores plain origins at the end.
func EncodeA2AOrigin(origin, dest, p int) int { return origin*p + dest }

// DecodeA2ADest extracts the destination rank from a transit-encoded
// all-to-all origin.
func DecodeA2ADest(enc, p int) int { return enc % p }

// FinalizeAlltoall rewrites the transit-encoded origins of a completed
// all-to-all bundle back to plain origin ranks and sorts the parts by
// origin. It panics if a chunk addressed to another rank is present —
// that is a routing bug, not an input error.
func FinalizeAlltoall(c comm.Comm, m comm.Message) comm.Message {
	p := c.Size()
	rank := c.Rank()
	for i := range m.Parts {
		enc := m.Parts[i].Origin
		if enc%p != rank {
			panic(fmt.Sprintf("core: all-to-all chunk for rank %d delivered to rank %d", enc%p, rank))
		}
		m.Parts[i].Origin = enc / p
	}
	sort.Slice(m.Parts, func(i, j int) bool { return m.Parts[i].Origin < m.Parts[j].Origin })
	return m
}

// chunk returns the d-th of p equal slices of data. The payload length
// must be a multiple of p; the facade's default payloads are, and an
// explicit RunOptions.Payload for a chunked collective must match.
func chunk(data []byte, d, p int) []byte {
	if len(data)%p != 0 {
		panic(fmt.Sprintf("core: chunked payload of %d bytes is not a multiple of p=%d", len(data), p))
	}
	cl := len(data) / p
	return data[d*cl : (d+1)*cl : (d+1)*cl]
}

// InitialFor builds the bundle a processor enters a collective with.
// payload is called only for ranks that hold initial data. For Broadcast,
// Reduce, AllReduce and AllGather each source contributes one part of its
// own bytes; for Scatter the root contributes p per-destination chunks
// (payload supplies p·L bytes, chunk d addressed to rank d); for AllToAll
// every rank contributes p chunks with transit-encoded origins.
func InitialFor(coll Collective, spec Spec, rank int, payload func(rank int) []byte) comm.Message {
	p := spec.P()
	switch coll {
	case Scatter:
		if rank != spec.Sources[0] {
			return comm.Message{}
		}
		data := payload(rank)
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: d, Data: chunk(data, d, p)}
		}
		return comm.Message{Parts: parts}
	case AllToAll:
		data := payload(rank)
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: EncodeA2AOrigin(rank, d, p), Data: chunk(data, d, p)}
		}
		return comm.Message{Parts: parts}
	default:
		if !spec.IsSource(rank) {
			return comm.Message{}
		}
		return comm.Message{Parts: []comm.Part{{Origin: rank, Data: payload(rank)}}}
	}
}

// InitialLenFor is InitialFor on the simulator's length-only path: size
// is the per-chunk (Scatter/AllToAll) or per-source (the rest) length L,
// declared without allocating payload bytes.
func InitialLenFor(coll Collective, spec Spec, rank, size int) comm.Message {
	p := spec.P()
	switch coll {
	case Scatter:
		if rank != spec.Sources[0] {
			return comm.Message{}
		}
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: d, Size: size}
		}
		return comm.Message{Parts: parts}
	case AllToAll:
		parts := make([]comm.Part, p)
		for d := 0; d < p; d++ {
			parts[d] = comm.Part{Origin: EncodeA2AOrigin(rank, d, p), Size: size}
		}
		return comm.Message{Parts: parts}
	default:
		return InitialMessageLen(spec, rank, size)
	}
}

// AllRanksSources returns the sorted source list naming every rank —
// the spec form of the sourceless collectives (AllGather, AllToAll).
func AllRanksSources(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}
