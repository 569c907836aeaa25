package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
)

// refFold is the scalar reference for ReduceBundle: a zeroed sum of the
// maximum part length, every data part added a byte at a time, and a
// length-only result when no part carries data.
func refFold(tag int, parts []comm.Part) comm.Message {
	if len(parts) == 0 {
		return comm.Message{Tag: tag}
	}
	maxLen, anyData := 0, false
	for _, p := range parts {
		maxLen = max(maxLen, p.Len())
		anyData = anyData || p.Data != nil
	}
	out := comm.Part{Origin: ReducedOrigin}
	if !anyData {
		out.Size = maxLen
		return comm.Message{Tag: tag, Parts: []comm.Part{out}}
	}
	out.Data = make([]byte, maxLen)
	for _, p := range parts {
		for i, b := range p.Data {
			out.Data[i] += b
		}
	}
	return comm.Message{Tag: tag, Parts: []comm.Part{out}}
}

// sameFold reports how got differs from the reference fold, or "".
func sameFold(got, want comm.Message) string {
	if got.Tag != want.Tag || len(got.Parts) != len(want.Parts) {
		return fmt.Sprintf("got %v, want %v", got, want)
	}
	for i := range got.Parts {
		g, w := got.Parts[i], want.Parts[i]
		switch {
		case g.Origin != w.Origin || g.Size != w.Size:
			return fmt.Sprintf("part %d: got origin %d size %d, want origin %d size %d", i, g.Origin, g.Size, w.Origin, w.Size)
		case (g.Data == nil) != (w.Data == nil):
			return fmt.Sprintf("part %d: got nil Data %v, want %v", i, g.Data == nil, w.Data == nil)
		case !bytes.Equal(g.Data, w.Data):
			return fmt.Sprintf("part %d: got % x, want % x", i, g.Data, w.Data)
		}
	}
	return ""
}

// FuzzReduceBundle holds the word-wise fold to the scalar reference.
// shape picks the bundle: shape[0] mod 21 parts, then three bytes per
// part giving its length (0..300) and its offset (0..63) into one shared
// buffer, so parts start misaligned the way chunk slices do, with the
// low bit of the third byte making it a nil-Data length-only part. fill
// seeds the shared buffer's bytes.
func FuzzReduceBundle(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{2, 0x40, 0x00, 0x02, 0x40, 0x00, 0x00}, []byte{0xff})
	f.Add([]byte{3, 0, 7, 3, 0, 33, 8, 1, 44, 0x0b}, []byte("fold"))
	f.Add([]byte{20,
		1, 44, 1, 0, 0, 2, 0, 31, 5, 0, 32, 6, 0, 33, 9,
		0, 255, 11, 1, 0, 12, 1, 1, 15, 0, 1, 17, 0, 8, 19,
		0, 9, 20, 0, 63, 21, 0, 64, 22, 0, 65, 23, 0, 17, 126,
		0, 200, 1, 0, 100, 3, 0, 7, 125, 0, 96, 27, 0, 97, 28,
		1, 43, 0, 0, 5, 0}, []byte{0x80, 0x7f, 0x01})
	f.Fuzz(func(t *testing.T, shape, fill []byte) {
		buf := make([]byte, 64+300)
		for i := range buf {
			buf[i] = byte(i*131 + 17)
			if len(fill) > 0 {
				buf[i] ^= fill[i%len(fill)]
			}
		}
		orig := append([]byte(nil), buf...)
		at := func(i int) int {
			if i < len(shape) {
				return int(shape[i])
			}
			return 0
		}
		parts := make([]comm.Part, at(0)%21)
		for k := range parts {
			n := (at(1+3*k)<<8 | at(2+3*k)) % 301
			sel := at(3 + 3*k)
			if sel&1 == 1 {
				parts[k] = comm.Part{Origin: k, Size: n}
				continue
			}
			off := (sel >> 1) % 64
			parts[k] = comm.Part{Origin: k, Data: buf[off : off+n]}
		}
		want := refFold(5, parts)
		if d := sameFold(ReduceBundle(comm.Message{Tag: 5, Parts: parts}), want); d != "" {
			t.Fatalf("ReduceBundle: %s", d)
		}
		// The schedules' per-round fold must agree wherever the bundle
		// is split, and keep the accumulator's tag.
		split := len(parts) / 2
		acc, m := comm.Message{Tag: 5, Parts: parts[:split]}, comm.Message{Tag: 9, Parts: parts[split:]}
		got := foldBundles(acc, m)
		if d := sameFold(got, want); d != "" {
			t.Fatalf("foldBundles split at %d: %s", split, d)
		}
		// The fold reads its inputs and returns a fresh buffer.
		if !bytes.Equal(buf, orig) {
			t.Fatal("fold wrote into an input part")
		}
		if len(got.Parts) == 1 {
			for i := range got.Parts[0].Data {
				got.Parts[0].Data[i]++
			}
		}
		if !bytes.Equal(buf, orig) {
			t.Fatal("fold result aliases an input part")
		}
	})
}

// TestLaneAdd checks the carry-free lane add against the byte sum on the
// lane boundary cases: carries out of the low seven bits, out of the top
// bit, and both at once, in every lane.
func TestLaneAdd(t *testing.T) {
	vals := []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for _, a := range vals {
		for _, b := range vals {
			for lane := 0; lane < 8; lane++ {
				x, y := uint64(a)<<(8*lane), uint64(b)<<(8*lane)
				if got, want := laneAdd(x, y), uint64(a+b)<<(8*lane); got != want {
					t.Fatalf("laneAdd(%#x, %#x) = %#x, want %#x", x, y, got, want)
				}
			}
		}
	}
}

var foldSink comm.Message

// BenchmarkReduceBundle times the fold at one butterfly round (two
// 16 KiB parts, an AllRed_RecDouble combine) and at sixteen 16 KiB
// parts (the benchmark ladder's core.fold_us.16k rung).
func BenchmarkReduceBundle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 16} {
		msg := comm.Message{Parts: make([]comm.Part, n)}
		for r := range msg.Parts {
			data := make([]byte, 16<<10)
			rng.Read(data)
			msg.Parts[r] = comm.Part{Origin: r, Data: data}
		}
		b.Run(fmt.Sprintf("%dx16KiB", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * 16 << 10))
			for i := 0; i < b.N; i++ {
				foldSink = ReduceBundle(msg)
			}
		})
	}
}
