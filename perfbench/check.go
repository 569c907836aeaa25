package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
)

// The output checkers. Each recomputes the expected result from the
// seeded inputs alone, independently of the algorithm that produced the
// output; a checker that fires counts the operation as failed.

// seededPayloads returns p random payloads of n bytes each. Random bytes,
// not a constant fill per rank, so a byte misplaced inside one message
// is caught, not only a message delivered to the wrong rank.
func seededPayloads(rng *rand.Rand, p, n int) [][]byte {
	out := make([][]byte, p)
	for r := range out {
		out[r] = make([]byte, n)
		rng.Read(out[r])
	}
	return out
}

// checkBroadcast verifies a Broadcast result: every rank holds exactly
// the sources' messages, each byte-equal to that source's payload.
func checkBroadcast(bundles []map[int][]byte, sources []int, payload [][]byte) error {
	for r, got := range bundles {
		if len(got) != len(sources) {
			return fmt.Errorf("broadcast: rank %d holds %d messages, want %d", r, len(got), len(sources))
		}
		for _, o := range sources {
			if !bytes.Equal(got[o], payload[o]) {
				return fmt.Errorf("broadcast: rank %d: message from origin %d differs from the source payload", r, o)
			}
		}
	}
	return nil
}

// foldBytes is the reference reduction: the byte-wise sum mod 256 of
// every contribution, the fold AllReduce delivers under core.ReducedOrigin.
func foldBytes(parts [][]byte) []byte {
	n := 0
	for _, p := range parts {
		n = max(n, len(p))
	}
	sum := make([]byte, n)
	for _, p := range parts {
		for i, b := range p {
			sum[i] += b
		}
	}
	return sum
}

// checkAllReduce verifies that every rank holds exactly one part, keyed
// by core.ReducedOrigin and equal to the reference fold.
func checkAllReduce(bundles []map[int][]byte, want []byte) error {
	for r, got := range bundles {
		d, ok := got[core.ReducedOrigin]
		if len(got) != 1 || !ok {
			return fmt.Errorf("allreduce: rank %d holds %d parts, want one reduced part", r, len(got))
		}
		if !bytes.Equal(d, want) {
			return fmt.Errorf("allreduce: rank %d: reduced bytes differ from the reference fold", r)
		}
	}
	return nil
}

// checkAllToAll verifies chunk placement: rank r holds one part per
// origin o, equal to chunk r of o's payload, the chunk the transit
// encoding (core.EncodeA2AOrigin/DecodeA2ADest) addresses to r.
func checkAllToAll(bundles []map[int][]byte, payload [][]byte) error {
	p := len(bundles)
	for r, got := range bundles {
		if len(got) != p {
			return fmt.Errorf("alltoall: rank %d holds %d chunks, want %d", r, len(got), p)
		}
		for o := 0; o < p; o++ {
			cl := len(payload[o]) / p
			if !bytes.Equal(got[o], payload[o][r*cl:(r+1)*cl]) {
				return fmt.Errorf("alltoall: rank %d: chunk from origin %d misplaced or corrupted", r, o)
			}
		}
	}
	return nil
}

// checkSessionBytes verifies a daemon session's byte counter: completed
// runs times the bytes one byte-verified run of the same config sends.
func checkSessionBytes(got int64, runs int, perRun int64) error {
	if want := int64(runs) * perRun; got != want {
		return fmt.Errorf("svc-small: session sent %d bytes over %d runs, want %d (%d per verified run)", got, runs, want, perRun)
	}
	return nil
}

// usefulBytes is the payload a result delivered, summed over every
// rank's bundle.
func usefulBytes(bundles []map[int][]byte) int64 {
	var n int64
	for _, b := range bundles {
		for _, d := range b {
			n += int64(len(d))
		}
	}
	return n
}

// seriesDigest hashes every value of a figure's series at full
// precision, so any change to a regenerated figure changes the digest.
func seriesDigest(s *bench.Series) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q|%q|%q|%q|%q\n", s.Title, s.XAxis, s.YAxis, s.XLabels, s.Order)
	for _, name := range s.Order {
		fmt.Fprintf(h, "%q:", name)
		for _, v := range s.Y[name] {
			h.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
			h.Write([]byte{','})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a regenerated figure's digest with the golden copy.
func checkDigest(id, got string, golden map[string]string) error {
	want, ok := golden[id]
	if !ok {
		return fmt.Errorf("paper-figs: no golden digest for %s", id)
	}
	if got != want {
		return fmt.Errorf("paper-figs: %s digest %s, golden %s", id, got[:12], want[:min(12, len(want))])
	}
	return nil
}
