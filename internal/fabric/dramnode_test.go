package fabric

import (
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// slowOneChannelHBM accepts one burst at a time and holds the channel for
// eight cycles per burst, so most DRAM-side atomics are refused at least
// once before the HBM takes them.
func slowOneChannelHBM() *dram.HBM {
	c := dram.DefaultConfig()
	c.Channels, c.QueueDepth, c.BurstCycles = 1, 1, 8
	return dram.New(c)
}

// runAtomics sends n single-word atomics at distinct bursts through a
// DRAMNode on a refusing HBM. Each output record carries the word the
// atomic returned in field 1.
func runAtomics(t *testing.T, op spad.Op, data func(r *record.Rec, k int) uint32) (*Graph, []record.Rec) {
	t.Helper()
	const n = 2000
	g := pinGraph(slowOneChannelHBM())
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i), 0)
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	NewDRAMNode(g, "atomic", spad.Spec{
		Op:            op,
		Width:         1,
		Addr:          func(r *record.Rec) uint32 { return r.Get(0) * 16 },
		Data:          data,
		Apply:         func(r *record.Rec, resp []uint32) bool { *r = r.Set(1, resp[0]); return true },
		DisjointAddrs: true,
	}, in, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Get("atomic.dram_stall") == 0 {
		t.Fatal("the HBM refused no atomic; the test exercises nothing")
	}
	if snk.Count() != n {
		t.Fatalf("%d of %d atomics returned", snk.Count(), n)
	}
	return g, snk.Records()
}

// A refused submit must have no side effect: the retry of an FAA adds once,
// and returns the word as it was before its only add.
func TestDRAMNodeFAAAppliesOnceWhenRefused(t *testing.T) {
	g, outs := runAtomics(t, spad.OpFAA, func(*record.Rec, int) uint32 { return 1 })
	bad := 0
	for i := 0; i < len(outs); i++ {
		if g.HBM.ReadWord(uint32(i)*16) != 1 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d words != 1 after one FAA(+1) each", bad, len(outs))
	}
	for _, r := range outs {
		if r.Get(1) != 0 {
			t.Fatalf("FAA on %d returned %d, want the pre-add value 0", r.Get(0), r.Get(1))
		}
	}
}

// A refused CAS must not swap: its retry compares against memory as it
// was, succeeds once and returns the old word.
func TestDRAMNodeCASAppliesOnceWhenRefused(t *testing.T) {
	g, outs := runAtomics(t, spad.OpCAS, func(r *record.Rec, k int) uint32 {
		if k == 0 {
			return 0 // compare
		}
		return r.Get(0) + 1 // swap
	})
	failed := 0
	for _, r := range outs {
		if r.Get(1) != 0 {
			failed++
		}
		if got := g.HBM.ReadWord(r.Get(0) * 16); got != r.Get(0)+1 {
			t.Fatalf("word %d = %d after CAS(0 -> %d)", r.Get(0), got, r.Get(0)+1)
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d CAS(0 -> x) on zeroed words returned a non-zero old word", failed, len(outs))
	}
}

// dramNodeSpecs are the request kinds the allocation test and
// BenchmarkDRAMNode drive: a 1-word read, a 2-word write and a 1-word FAA,
// each at a distinct address per thread.
func dramNodeSpecs() []struct {
	name string
	spec spad.Spec
} {
	addr := func(r *record.Rec) uint32 { return r.Get(0) * 4 % (1 << 20) }
	return []struct {
		name string
		spec spad.Spec
	}{
		{"read", spad.Spec{Op: spad.OpRead, Width: 1, Addr: addr,
			Apply: func(r *record.Rec, resp []uint32) bool { *r = r.Set(1, resp[0]); return true }}},
		{"write", spad.Spec{Op: spad.OpWrite, Width: 2, Addr: addr, DisjointAddrs: true,
			Data: func(r *record.Rec, k int) uint32 { return r.Get(0) + uint32(k) }}},
		{"faa", spad.Spec{Op: spad.OpFAA, Width: 1, Addr: addr, DisjointAddrs: true,
			Data:  func(*record.Rec, int) uint32 { return 1 },
			Apply: func(r *record.Rec, resp []uint32) bool { *r = r.Set(1, resp[0]); return true }}},
	}
}

// Every request kind round-trips through a warmed DRAMNode — submit into
// the node's slot arena, HBM issue and retire, tagged completion — without
// allocating.
func TestDRAMNodeZeroAllocPerRequest(t *testing.T) {
	for _, c := range dramNodeSpecs() {
		t.Run(c.name, func(t *testing.T) {
			g := pinGraph(dram.New(dram.DefaultConfig()))
			d := NewDRAMNode(g, "n", c.spec, g.Link("in"), g.Link("out"))
			var cycle int64
			i := uint32(0)
			req := func() {
				*d.backlog.PushRefDirty() = record.Make(i, 0)
				i++
				d.submit(cycle)
				if d.backlog.Len() != 0 {
					t.Fatal("request refused by an idle HBM")
				}
				for ; d.outstanding > 0; cycle++ {
					g.HBM.Tick(cycle)
				}
				for d.ready.Len() > 0 {
					d.ready.Drop()
				}
			}
			for k := 0; k < 1000; k++ {
				req()
			}
			if allocs := testing.AllocsPerRun(500, req); allocs != 0 {
				t.Fatalf("a warmed DRAMNode %s allocates %.2f times per request; want 0", c.name, allocs)
			}
		})
	}
}

// A single-leg DRAMExpand fetch — submit, tagged completion, expansion into
// the node's reused child buffer — allocates nothing once warmed.
func TestDRAMExpandZeroAllocPerFetch(t *testing.T) {
	g := pinGraph(dram.New(dram.DefaultConfig()))
	d := NewDRAMExpand(g, "exp", []Leg{{Width: 33, Addr: func(r record.Rec) uint32 { return r.Get(0) * 40 % (1 << 20) }}},
		func(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec {
			return append(out, r.Append(blocks[0][0]), r.Append(blocks[0][32]))
		}, nil, g.Link("in"), g.Link("out"))
	var cycle int64
	i := uint32(0)
	fetch := func() {
		*d.backlog.PushRefDirty() = record.Make(i)
		i++
		d.submit(cycle)
		if d.backlog.Len() != 0 {
			t.Fatal("fetch refused by an idle HBM")
		}
		for ; d.outstanding > 0; cycle++ {
			g.HBM.Tick(cycle)
		}
		if d.ready.Len() != 2 {
			t.Fatalf("%d children, want 2", d.ready.Len())
		}
		d.ready.DropN(2)
	}
	for k := 0; k < 1000; k++ {
		fetch()
	}
	if allocs := testing.AllocsPerRun(500, fetch); allocs != 0 {
		t.Fatalf("a warmed single-leg DRAMExpand allocates %.2f times per fetch; want 0", allocs)
	}
}

// A fork appends children into its own reused buffer: expanding a parent
// allocates nothing once the buffer covers the widest fan-out.
func TestForkZeroAllocPerParent(t *testing.T) {
	g := NewGraph()
	f := NewFork("fork", func(r record.Rec, out []record.Rec) []record.Rec {
		for k := uint32(0); k <= r.Get(0)%3; k++ {
			out = append(out, r.Append(k))
		}
		return out
	}, g.Link("in"), g.Link("out"), NewLoopCtl())
	var cycle int64
	i := uint32(0)
	parent := func() {
		r := record.Make(i)
		i++
		f.fork(&r, cycle)
		cycle++
		for f.buf.Len() > 0 {
			f.buf.Drop()
		}
	}
	for k := 0; k < 100; k++ {
		parent()
	}
	if allocs := testing.AllocsPerRun(500, parent); allocs != 0 {
		t.Fatalf("a warmed Fork allocates %.2f times per parent; want 0", allocs)
	}
}
