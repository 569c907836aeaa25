package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden_figs.json from freshly regenerated figures")

// Every checker must fire on a corrupted output. The outputs are built
// from the inputs the way a correct run delivers them, then corrupted.

func TestCheckBroadcastFires(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pl := seededPayloads(rng, 4, 64)
	src := []int{0, 2}
	good := func() []map[int][]byte {
		out := make([]map[int][]byte, 4)
		for r := range out {
			out[r] = map[int][]byte{}
			for _, o := range src {
				out[r][o] = append([]byte(nil), pl[o]...)
			}
		}
		return out
	}
	if err := checkBroadcast(good(), src, pl); err != nil {
		t.Fatalf("correct broadcast rejected: %v", err)
	}
	flipped := good()
	flipped[3][2][17] ^= 1
	missing := good()
	delete(missing[1], 0)
	swapped := good()
	swapped[2][0], swapped[2][2] = swapped[2][2], swapped[2][0]
	for name, b := range map[string][]map[int][]byte{"flipped byte": flipped, "missing origin": missing, "swapped origins": swapped} {
		if checkBroadcast(b, src, pl) == nil {
			t.Errorf("%s: checker did not fire", name)
		}
	}
}

func TestCheckAllReduceFires(t *testing.T) {
	pl := seededPayloads(rand.New(rand.NewSource(2)), 4, 64)
	want := foldBytes(pl)
	good := func() []map[int][]byte {
		out := make([]map[int][]byte, 4)
		for r := range out {
			out[r] = map[int][]byte{core.ReducedOrigin: core.ReduceBundle(messageOf(pl)).Parts[0].Data}
		}
		return out
	}
	if err := checkAllReduce(good(), want); err != nil {
		t.Fatalf("correct allreduce rejected: %v", err)
	}
	flipped := good()
	flipped[1][core.ReducedOrigin][5]++
	partial := good()
	partial[0][core.ReducedOrigin] = foldBytes(pl[:3])
	extra := good()
	extra[2][0] = pl[0]
	for name, b := range map[string][]map[int][]byte{"flipped byte": flipped, "missing contribution": partial, "extra part": extra} {
		if checkAllReduce(b, want) == nil {
			t.Errorf("%s: checker did not fire", name)
		}
	}
}

func TestCheckAllToAllFires(t *testing.T) {
	const p, cl = 4, 16
	pl := seededPayloads(rand.New(rand.NewSource(3)), p, p*cl)
	good := func() []map[int][]byte {
		out := make([]map[int][]byte, p)
		for r := range out {
			out[r] = map[int][]byte{}
			for o := 0; o < p; o++ {
				out[r][o] = append([]byte(nil), pl[o][r*cl:(r+1)*cl]...)
			}
		}
		return out
	}
	if err := checkAllToAll(good(), pl); err != nil {
		t.Fatalf("correct alltoall rejected: %v", err)
	}
	misplaced := good()
	misplaced[1][2] = pl[2][0:cl] // rank 0's chunk delivered to rank 1
	flipped := good()
	flipped[3][0][cl-1] ^= 0x80
	for name, b := range map[string][]map[int][]byte{"misplaced chunk": misplaced, "flipped byte": flipped} {
		if checkAllToAll(b, pl) == nil {
			t.Errorf("%s: checker did not fire", name)
		}
	}
}

func TestCheckSessionBytesFires(t *testing.T) {
	if err := checkSessionBytes(3*4096, 3, 4096); err != nil {
		t.Fatalf("correct counter rejected: %v", err)
	}
	if checkSessionBytes(3*4096-1, 3, 4096) == nil || checkSessionBytes(3*4096, 4, 4096) == nil {
		t.Error("checker did not fire on a short or over-counted byte counter")
	}
}

func TestGoldenFigs(t *testing.T) {
	golden := map[string]string{}
	series := map[string]*bench.Series{}
	for _, id := range figIDs {
		e, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		series[id], golden[id] = s, seriesDigest(s)
	}
	if *update {
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden_figs.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := goldenFigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range figIDs {
		if err := checkDigest(id, golden[id], want); err != nil {
			t.Error(err)
		}
		// A changed series must change the digest.
		s := series[id]
		s.Y[s.Order[0]][0] += 1e-9
		if checkDigest(id, seriesDigest(s), want) == nil {
			t.Errorf("%s: checker did not fire on a perturbed series", id)
		}
	}
}

func messageOf(parts [][]byte) comm.Message {
	var m comm.Message
	for r, p := range parts {
		m.Parts = append(m.Parts, comm.Part{Origin: r, Data: p})
	}
	return m
}
