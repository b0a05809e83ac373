package fabric

import (
	"hash/fnv"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// The DRAM-facing nodes' exactness pin: an order-sensitive digest of every
// output record, the cycle count, every node counter, the HBM's counters
// and (for writers) the final memory, for each HBM-issuing node on a
// default and a narrow HBM. Any refactor of how these nodes submit and
// complete requests must leave every digest unchanged.

// pinDigest accumulates one case's observable outcome.
type pinDigest struct{ h uint64 }

func (p *pinDigest) put(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			p.h ^= v >> (8 * i) & 0xff
			p.h *= 1099511628211
		}
	}
}

func (p *pinDigest) recs(rs []record.Rec) {
	p.put(uint64(len(rs)))
	for _, r := range rs {
		p.put(uint64(r.N))
		for f := 0; f < int(r.N); f++ {
			p.put(uint64(r.F[f]))
		}
	}
}

// finish folds in the cycle count, the counter set and the HBM counters.
func (p *pinDigest) finish(g *Graph, cycles int64) {
	p.put(uint64(cycles))
	h := fnv.New64a()
	h.Write([]byte(g.Stats().String()))
	p.put(h.Sum64())
	m := g.HBM
	p.put(uint64(m.ReadBursts), uint64(m.WriteBursts), uint64(m.RowHits), uint64(m.RowMisses),
		uint64(m.Stalls), uint64(m.CoalescedWrites))
}

func (p *pinDigest) mem(h *dram.HBM, base uint32, n int) {
	for i := 0; i < n; i++ {
		p.put(uint64(h.ReadWord(base + uint32(i))))
	}
}

// narrowHBM has two channels with two-deep queues: multi-burst requests
// are refused often and bursts on different channels complete out of
// order.
func narrowHBM() *dram.HBM {
	c := dram.DefaultConfig()
	c.Channels, c.QueueDepth = 2, 2
	return dram.New(c)
}

// oneChannelHBM serializes every burst through one four-deep queue, so a
// two-leg fetch of two-burst blocks gets both legs in only when the queue
// is empty, and often its first leg in and its second refused.
func oneChannelHBM() *dram.HBM {
	c := dram.DefaultConfig()
	c.Channels, c.QueueDepth = 1, 4
	return dram.New(c)
}

func pinGraph(h *dram.HBM) *Graph {
	g := NewGraph()
	g.AttachHBM(h)
	return g
}

func pinRun(t *testing.T, g *Graph, p *pinDigest) {
	t.Helper()
	cycles, err := g.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	p.finish(g, cycles)
}

func pinDRAMRead(t *testing.T, width int) uint64 {
	var p pinDigest
	g := pinGraph(dram.New(dram.DefaultConfig()))
	words := make([]uint32, 1<<16)
	for i := range words {
		words[i] = uint32(i)*2654435761 + 7
	}
	g.HBM.LoadWords(1<<20, words)
	recs := make([]record.Rec, 3000)
	for i := range recs {
		recs[i] = record.Make(uint32(i), 0)
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	NewDRAMNode(g, "rd", spad.Spec{
		Op:    spad.OpRead,
		Width: width,
		Addr: func(r *record.Rec) uint32 {
			return 1<<20 + (r.Get(0)*97)%4000*uint32(width+8)%(1<<16-uint32(width))
		},
		Apply: func(r *record.Rec, resp []uint32) bool {
			x := uint32(len(resp))
			for _, w := range resp {
				x = x*31 + w
			}
			*r = r.Set(1, x)
			return x%7 != 0
		},
	}, in, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	pinRun(t, g, &p)
	p.recs(snk.Records())
	return p.h
}

func pinDRAMWrite(t *testing.T) uint64 {
	var p pinDigest
	g := pinGraph(narrowHBM())
	recs := make([]record.Rec, 2500)
	for i := range recs {
		recs[i] = record.Make(uint32(i), uint32(i)*3)
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	NewDRAMNode(g, "wr", spad.Spec{
		Op:    spad.OpWrite,
		Width: 3,
		Addr:  func(r *record.Rec) uint32 { return 9000 + r.Get(0)*13%2000*3 },
		Data:  func(r *record.Rec, k int) uint32 { return r.Get(1) + uint32(k) },
		// Repeated addresses: the serial kernel's issue order decides the
		// last writer, and the pin records it.
		OrderWaiver: "pinned differential test: last writer is deterministic",
	}, in, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	pinRun(t, g, &p)
	p.recs(snk.Records())
	p.mem(g.HBM, 9000, 6000)
	return p.h
}

func pinDRAMScan(t *testing.T, h *dram.HBM, extents []Extent, recWords int) uint64 {
	var p pinDigest
	g := pinGraph(h)
	for _, e := range extents {
		for i := 0; i < e.Words; i++ {
			g.HBM.WriteWord(e.Addr+uint32(i), e.Addr*5+uint32(i)*11)
		}
	}
	out := g.Link("out")
	NewDRAMScan(g, "scan", extents, recWords, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	pinRun(t, g, &p)
	p.recs(snk.Records())
	return p.h
}

func pinDRAMAppend(t *testing.T) uint64 {
	var p pinDigest
	g := pinGraph(dram.New(dram.DefaultConfig()))
	recs := make([]record.Rec, 2000)
	for i := range recs {
		recs[i] = record.Make(uint32(i), uint32(i)^0x5a5a, uint32(i)*7)
	}
	in := g.Link("in")
	g.Add(NewSource("src", recs, in))
	app := NewDRAMAppend(g, "app", 70000, 3, in)
	pinRun(t, g, &p)
	p.put(uint64(app.Count()), uint64(app.Words()))
	p.mem(g.HBM, 70000, 6000)
	return p.h
}

func pinSpill(t *testing.T) uint64 {
	var p pinDigest
	g := pinGraph(dram.New(dram.DefaultConfig()))
	const n = 3000
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i), uint32(i)*5)
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	sq := NewSpillQueue(g, "sq", 1<<26, 2, 64, in, out)
	snk := &slowSink{in: out, want: n}
	g.Add(snk)
	pinRun(t, g, &p)
	if sq.Spills == 0 {
		t.Fatal("spill case did not spill")
	}
	p.put(uint64(sq.Spills))
	p.recs(snk.recs)
	return p.h
}

// pinExpand1 forks blocks[0][0]%4 children per thread, each tagged with a
// word of the fetched block.
func pinExpand1(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec {
	b := blocks[0]
	for k := uint32(0); k < b[0]%4; k++ {
		out = append(out, r.Append(b[1+k]))
	}
	return out
}

// pinExpand2 forks one child per leg-0 word that the leg-1 block's
// matching word exceeds, so both blocks must arrive intact.
func pinExpand2(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec {
	a, b := blocks[0], blocks[1]
	for k := 0; k < len(a) && len(out) < 3; k++ {
		if b[k]%3 == a[k]%3 {
			out = append(out, r.Append(a[k]^b[k]))
		}
	}
	return out
}

func pinDRAMExpand(t *testing.T, h *dram.HBM, legs int) uint64 {
	var p pinDigest
	g := pinGraph(h)
	for i := uint32(0); i < 1<<15; i++ {
		g.HBM.WriteWord(i, i*2246822519+13)
	}
	recs := make([]record.Rec, 1500)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	if legs == 1 {
		pinNewExpand(g, "exp", []Leg{{Width: 9, Addr: func(r record.Rec) uint32 { return r.Get(0) * 37 % 30000 }}},
			pinExpand1, in, out)
	} else {
		pinNewExpand(g, "exp", []Leg{
			{Width: 17, Addr: func(r record.Rec) uint32 { return r.Get(0) * 41 % 30000 }},
			{Width: 17, Addr: func(r record.Rec) uint32 { return 1000 + r.Get(0)*53%30000 }},
		}, pinExpand2, in, out)
	}
	snk := NewSink("snk", out)
	g.Add(snk)
	pinRun(t, g, &p)
	p.recs(snk.Records())
	return p.h
}

// pinNewExpand wires a DRAMExpand outside any loop.
func pinNewExpand(g *Graph, name string, legs []Leg, fn func(record.Rec, [][]uint32, []record.Rec) []record.Rec, in, out *sim.Link) {
	NewDRAMExpand(g, name, legs, fn, nil, in, out)
}

func TestDRAMNodesPinned(t *testing.T) {
	var scattered []Extent
	for i := uint32(0); i < 300; i++ {
		scattered = append(scattered, Extent{Addr: 40000 + i*i*37%20000, Words: 9 + int(i*7%25)})
	}
	cases := []struct {
		name string
		run  func(*testing.T) uint64
		want uint64
	}{
		{"dramnode-read-w1", func(t *testing.T) uint64 { return pinDRAMRead(t, 1) }, 0x1f82be1ae5efa9c5},
		{"dramnode-read-w33", func(t *testing.T) uint64 { return pinDRAMRead(t, 33) }, 0x842fa558aa73db78},
		{"dramnode-write-narrow", pinDRAMWrite, 0xebba80a37568a6a4},
		{"dramscan-default", func(t *testing.T) uint64 {
			return pinDRAMScan(t, dram.New(dram.DefaultConfig()),
				[]Extent{{Addr: 3, Words: 5000}, {Addr: 20000, Words: 700}, {Addr: 33333, Words: 1201}}, 3)
		}, 0x85ec698f9849caec},
		{"dramscan-narrow-out-of-order", func(t *testing.T) uint64 {
			return pinDRAMScan(t, narrowHBM(), scattered, 2)
		}, 0x5f62e3d0fc02604a},
		{"dramappend", pinDRAMAppend, 0xb51efec201c780d5},
		{"spillqueue-spill-refill", pinSpill, 0xef0bd2f0309724e0},
		{"dramexpand-1leg", func(t *testing.T) uint64 { return pinDRAMExpand(t, dram.New(dram.DefaultConfig()), 1) }, 0x2da009ca63f7800d},
		{"dramexpand-2leg-refused", func(t *testing.T) uint64 { return pinDRAMExpand(t, oneChannelHBM(), 2) }, 0x9781ca8c5eb52355},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}
