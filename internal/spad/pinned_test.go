package spad

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// pinnedSource feeds a fixed vector list, idling on a seeded fraction of
// cycles so the tile also sees an input link that runs dry.
type pinnedSource struct {
	out  *sim.Link
	vecs []record.Vector
	rng  *rand.Rand
	pos  int
	eos  bool
}

func (s *pinnedSource) Name() string { return "src" }
func (s *pinnedSource) Done() bool   { return s.eos }
func (s *pinnedSource) Tick(c int64) {
	if s.eos || !s.out.CanPush() || s.rng.Intn(4) == 0 {
		return
	}
	if s.pos < len(s.vecs) {
		*s.out.StageVec(c) = s.vecs[s.pos]
		s.pos++
		return
	}
	s.out.PushEOS(c)
	s.eos = true
}

// pinnedSink digests every output flit — arrival cycle, lane mask and each
// record in lane order — and drains at most one flit every every-th cycle,
// so a throttled sink backs the tile's output up into its stall paths.
type pinnedSink struct {
	in    *sim.Link
	every int64
	d     hash.Hash64
	eos   bool
}

func (s *pinnedSink) Name() string { return "snk" }
func (s *pinnedSink) Done() bool   { return s.eos }
func (s *pinnedSink) Tick(c int64) {
	for !s.in.Empty() && c%s.every == 0 {
		f := s.in.Peek()
		s.in.Drop()
		if f.EOS {
			s.eos = true
			return
		}
		digestPut(s.d, uint64(c))
		digestPut(s.d, uint64(f.Vec.Mask))
		for i := 0; i < record.NumLanes; i++ {
			if !f.Vec.Valid(i) {
				continue
			}
			r := &f.Vec.Lane[i]
			digestPut(s.d, uint64(r.N))
			for _, w := range r.F {
				digestPut(s.d, uint64(w))
			}
		}
		if s.every > 1 {
			return
		}
	}
}

func digestPut(d hash.Hash64, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.Write(b[:])
}

// pinnedVecs builds n input vectors of [id, key] records with random lane
// masks (a quarter are full). keys draws from a hot set of four banks when
// conflicty, else uniformly over words.
func pinnedVecs(rng *rand.Rand, n int, words uint32, conflicty bool) []record.Vector {
	vecs := make([]record.Vector, n)
	id := uint32(0)
	for i := range vecs {
		mask := uint16(rng.Intn(1 << 16))
		if rng.Intn(4) == 0 {
			mask = 0xffff
		}
		for l := 0; l < record.NumLanes; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			key := uint32(rng.Intn(int(words)))
			if conflicty {
				key = uint32(rng.Intn(4)) + 16*uint32(rng.Intn(8))
			}
			vecs[i].Lane[l] = record.Make(id, key)
			id++
		}
		vecs[i].Mask = mask
	}
	return vecs
}

// pinnedStreams are the stream configurations the digest covers; each
// takes the memory's word count so addresses stay in range.
var pinnedStreams = []struct {
	name      string
	lineShift uint
	spec      func(words uint32) Spec
}{
	{"read1", 0, func(words uint32) Spec {
		return Spec{Op: OpRead, Width: 1,
			Addr: func(r *record.Rec) uint32 { return r.Get(1) },
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return true
			}}
	}},
	{"read4", 2, func(words uint32) Spec {
		return Spec{Op: OpRead, Width: 4,
			Addr: func(r *record.Rec) uint32 { return r.Get(1) * 4 % words },
			Apply: func(r *record.Rec, resp []uint32) bool {
				for _, w := range resp {
					*r = r.Append(w)
				}
				return true
			}}
	}},
	{"write", 0, func(words uint32) Spec {
		return Spec{Op: OpWrite, Width: 1,
			Addr: func(r *record.Rec) uint32 { return r.Get(1) },
			Data: func(r *record.Rec, _ int) uint32 { return r.Get(0) + 7 }}
	}},
	{"cas", 0, func(words uint32) Spec {
		return Spec{Op: OpCAS,
			Addr: func(r *record.Rec) uint32 { return r.Get(1) },
			Data: func(r *record.Rec, i int) uint32 {
				if i == 0 {
					return r.Get(0) % 3
				}
				return r.Get(0)
			},
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return true
			}}
	}},
	{"faa", 0, func(words uint32) Spec {
		return Spec{Op: OpFAA,
			Addr: func(r *record.Rec) uint32 { return r.Get(1) },
			Data: func(r *record.Rec, _ int) uint32 { return r.Get(0) | 1 },
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return true
			}}
	}},
	{"modify-drop", 0, func(words uint32) Spec {
		return Spec{Op: OpModify, Lossy: true,
			Addr:   func(r *record.Rec) uint32 { return r.Get(1) },
			Modify: func(cur uint32, r *record.Rec) uint32 { return cur*3 + r.Get(0) },
			Apply: func(r *record.Rec, resp []uint32) bool {
				*r = r.Append(resp[0])
				return (resp[0]+r.Get(0))%5 != 0
			}}
	}},
}

// pinnedTileDigest runs one stream through every dequeue discipline,
// forwarding setting, address pattern and output throttle on a tile over a
// banks-bank Mem, and returns an order-sensitive digest of every output
// flit plus the tile's counters and final memory after each run.
func pinnedTileDigest(t *testing.T, banks int, lineShift uint, mkSpec func(words uint32) Spec, inOrder bool) uint64 {
	t.Helper()
	d := fnv.New64a()
	for _, fwd := range []bool{false, true} {
		for _, conflicty := range []bool{false, true} {
			for _, every := range []int64{1, 3, 7} {
				mem := NewMem(banks, 64, lineShift)
				for a := 0; a < mem.Words(); a++ {
					mem.Write(uint32(a), uint32(a)*2654435761)
				}
				words := uint32(mem.Words())
				if lineShift > 0 {
					words >>= lineShift
				}
				rng := rand.New(rand.NewSource(int64(banks)*31 + 5))
				vecs := pinnedVecs(rng, 160, words, conflicty)
				sys := sim.NewSystem()
				in := sys.NewLink("in", 4, 1)
				out := sys.NewLink("out", 2, 1)
				cfg := Config{Name: "pin", InOrder: inOrder, ForwardRMW: fwd}
				tile := NewTile(cfg, mem, mkSpec(uint32(mem.Words())), in, out, sys.Stats())
				sys.Add(&pinnedSource{out: in, vecs: vecs, rng: rng})
				sys.Add(tile)
				sys.Add(&pinnedSink{in: out, every: every, d: d})
				cycles, err := sys.Run(1_000_000)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				digestPut(d, uint64(cycles))
				for _, c := range []string{"grants", "conflicts", "requests", "dropped", "resp_stall", "in_stall", "out_stall"} {
					digestPut(d, uint64(sys.Stats().Get("pin."+c)))
				}
				for _, w := range mem.Snapshot(0, mem.Words()) {
					digestPut(d, uint64(w))
				}
			}
		}
	}
	return d.Sum64()
}

// TestTilePinned pins the scratchpad tile's observable behaviour — output
// vectors with their cycles, lane masks and records in order, every tile
// counter, and final memory — for each op, both dequeue disciplines with
// and without RMW forwarding, uniform and conflict-heavy addresses, and a
// drained and a throttled output. The 128-bank rows run the allocator's
// reference path (more banks than a 64-bit mask holds). Any change to the
// tile's internals must leave every digest unchanged.
func TestTilePinned(t *testing.T) {
	const read1, faa = 0, 4 // pinnedStreams indices
	for _, tc := range []struct {
		banks   int
		stream  int
		inOrder bool
		digest  uint64
	}{
		{16, 0, false, 0xc3f8ebae79f89755}, {16, 0, true, 0x848f0716db4df28d},
		{16, 1, false, 0xb3517924022806cd}, {16, 1, true, 0x2d1b10dc3eaf5725},
		{16, 2, false, 0xa5bea25129aa5779}, {16, 2, true, 0x5037397a1d053381},
		{16, 3, false, 0xfad75be3934f8773}, {16, 3, true, 0xc2e1743b8e332f4},
		{16, 4, false, 0x2f3a268cd19358ed}, {16, 4, true, 0xfae66dfc919adde4},
		{16, 5, false, 0x447c35e19dc5d3d7}, {16, 5, true, 0x561899493ec5da21},
		{128, read1, false, 0x74a7b18988c5f455}, {128, read1, true, 0xf6279980ef0cc459},
		{128, faa, false, 0xa2ca23290284af2b}, {128, faa, true, 0xa5ef75966a54c5d1},
	} {
		s := pinnedStreams[tc.stream]
		if got := pinnedTileDigest(t, tc.banks, s.lineShift, s.spec, tc.inOrder); got != tc.digest {
			t.Errorf("banks=%d %s inorder=%v: digest %#x, pinned %#x", tc.banks, s.name, tc.inOrder, got, tc.digest)
		}
	}
}
