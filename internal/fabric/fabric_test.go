package fabric

import (
	"reflect"
	"sort"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

func seqRecs(n int) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	return recs
}

func sortedField0(recs []record.Rec) []uint32 {
	out := make([]uint32, len(recs))
	for i, r := range recs {
		out[i] = r.Get(0)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSourceMapSink(t *testing.T) {
	g := NewGraph()
	a := g.Link("a")
	b := g.Link("b")
	g.Add(NewSource("src", seqRecs(100), a))
	g.Add(NewMap("double", func(r *record.Rec) {
		r.Put(0, r.Get(0)*2)
	}, a, b))
	snk := NewSink("snk", b)
	g.Add(snk)
	cycles, err := g.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 100 {
		t.Fatalf("got %d records", snk.Count())
	}
	for i, r := range snk.Records() {
		if r.Get(0) != uint32(2*i) {
			t.Fatalf("record %d = %d", i, r.Get(0))
		}
	}
	// 100 records = 7 vectors; pipeline+links add tens of cycles, not thousands.
	if cycles > 200 {
		t.Errorf("linear pipeline took %d cycles for 7 vectors", cycles)
	}
}

// TestSourceFuncDiscardSink: a generator source streams the same vectors,
// in the same cycles, as a source over the materialized records, and a
// discarding sink counts what a keeping sink collects without keeping it.
func TestSourceFuncDiscardSink(t *testing.T) {
	const n = 100
	recs := seqRecs(n)
	run := func(src func(out *sim.Link) *Source, discard bool) (*Sink, int64) {
		g := NewGraph()
		a, b := g.Link("a"), g.Link("b")
		g.Add(src(a))
		g.Add(NewMap("double", func(r *record.Rec) { r.Put(0, r.Get(0)*2) }, a, b))
		snk := NewSink("snk", b)
		if discard {
			snk.Discard()
		}
		g.Add(snk)
		if supply := g.FlowNet().Nodes[0].Supply; supply != n {
			t.Fatalf("flow-net supply %d, want %d", supply, n)
		}
		cycles, err := g.Run(100_000)
		if err != nil {
			t.Fatal(err)
		}
		return snk, cycles
	}
	fromSlice := func(out *sim.Link) *Source { return NewSource("src", recs, out) }
	fromFunc := func(out *sim.Link) *Source {
		return NewSourceFunc("src", n, func(i int) record.Rec { return record.Make(uint32(i)) }, out)
	}
	want, wantCycles := run(fromSlice, false)
	got, cycles := run(fromFunc, false)
	if cycles != wantCycles || !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Fatalf("generator source: %d cycles, records %v; slice source: %d cycles, records %v",
			cycles, got.Records(), wantCycles, want.Records())
	}
	dropped, cycles := run(fromFunc, true)
	if cycles != wantCycles || dropped.Count() != n || len(dropped.Records()) != 0 {
		t.Fatalf("discarding sink: %d cycles, count %d, kept %d; want %d cycles, count %d, kept 0",
			cycles, dropped.Count(), len(dropped.Records()), wantCycles, n)
	}
}

func TestMapStatefulCounter(t *testing.T) {
	g := NewGraph()
	a, b := g.Link("a"), g.Link("b")
	g.Add(NewSource("src", seqRecs(50), a))
	ctr := uint32(0)
	g.Add(NewMap("stamp", func(r *record.Rec) {
		*r = r.Append(ctr)
		ctr++
	}, a, b))
	snk := NewSink("snk", b)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	for i, r := range snk.Records() {
		if r.Get(1) != uint32(i) {
			t.Fatalf("stamp %d = %d", i, r.Get(1))
		}
	}
}

func TestFilterSplitsAndCompacts(t *testing.T) {
	g := NewGraph()
	in, even, odd := g.Link("in"), g.Link("even"), g.Link("odd")
	g.Add(NewSource("src", seqRecs(99), in))
	g.Add(NewFilter("parity", func(r *record.Rec) int {
		return int(r.Get(0) % 2)
	}, in, []Output{{Link: even}, {Link: odd}}, nil))
	se, so := NewSink("se", even), NewSink("so", odd)
	g.Add(se, so)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if se.Count() != 50 || so.Count() != 49 {
		t.Fatalf("even=%d odd=%d", se.Count(), so.Count())
	}
	for _, r := range se.Records() {
		if r.Get(0)%2 != 0 {
			t.Fatal("odd record on even stream")
		}
	}
}

func TestFilterDrop(t *testing.T) {
	g := NewGraph()
	in, keep := g.Link("in"), g.Link("keep")
	g.Add(NewSource("src", seqRecs(64), in))
	g.Add(NewFilter("drop-high", func(r *record.Rec) int {
		if r.Get(0) < 16 {
			return 0
		}
		return -1 // kill
	}, in, []Output{{Link: keep}}, nil))
	snk := NewSink("snk", keep)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 16 {
		t.Fatalf("kept %d", snk.Count())
	}
}

func TestMergeCombines(t *testing.T) {
	g := NewGraph()
	a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
	g.Add(NewSource("s1", seqRecs(40), a))
	recs2 := make([]record.Rec, 25)
	for i := range recs2 {
		recs2[i] = record.Make(uint32(1000 + i))
	}
	g.Add(NewSource("s2", recs2, b))
	g.Add(NewMerge("m", a, b, out))
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 65 {
		t.Fatalf("merged %d", snk.Count())
	}
}

func TestForkExpands(t *testing.T) {
	g := NewGraph()
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", seqRecs(20), in))
	g.Add(NewFork("fork3", func(r record.Rec, out []record.Rec) []record.Rec {
		return append(out, r, r, r)
	}, in, out, nil))
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 60 {
		t.Fatalf("forked to %d", snk.Count())
	}
}

// TestCyclicCountdownLoop is the canonical recirculating while-loop of
// fig. 5a: threads decrement a counter until zero, then exit. It validates
// the LoopCtl drain protocol end to end, including threads with wildly
// different lifetimes bypassing one another.
func TestCyclicCountdownLoop(t *testing.T) {
	g := NewGraph()
	ext, body, dec, exit := g.Link("ext"), g.Link("body"), g.Link("dec"), g.Link("exit")
	recirc := g.Link("recirc")

	// Thread: [id, count]. Loop until count == 0.
	var recs []record.Rec
	for i := 0; i < 200; i++ {
		recs = append(recs, record.Make(uint32(i), uint32(i%17)))
	}
	ctl := NewLoopCtl()
	g.Add(NewSource("src", recs, ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewMap("dec", func(r *record.Rec) {
		if c := r.Get(1); c > 0 {
			r.Put(1, c-1)
		}
	}, body, dec))
	g.Add(NewFilter("exit?", func(r *record.Rec) int {
		if r.Get(1) == 0 {
			return 0 // exit
		}
		return 1 // recirculate
	}, dec, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	snk := NewSink("snk", exit)
	g.Add(snk)

	if _, err := g.Run(1_000_000); err != nil {
		t.Fatalf("loop run: %v", err)
	}
	if snk.Count() != 200 {
		t.Fatalf("exited %d threads, want 200", snk.Count())
	}
	ids := sortedField0(snk.Records())
	for i, id := range ids {
		if id != uint32(i) {
			t.Fatalf("thread %d missing (got id %d)", i, id)
		}
	}
	if ctl.Inflight() != 0 {
		t.Errorf("loop drained but inflight=%d", ctl.Inflight())
	}
}

// TestLoopWithForkInside: threads fork children inside a cyclic pipeline
// (the B-tree pattern). Each thread of depth d spawns two children of depth
// d-1; depth-0 threads exit. Total exits = 2^d per root.
func TestLoopWithForkInside(t *testing.T) {
	g := NewGraph()
	ext, body, forked, exit := g.Link("ext"), g.Link("body"), g.Link("forked"), g.Link("exit")
	recirc := g.Link("recirc")
	ctl := NewLoopCtl()

	roots := []record.Rec{record.Make(1, 3), record.Make(2, 4)} // depths 3, 4
	g.Add(NewSource("src", roots, ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	g.Add(NewFork("split", func(r record.Rec, out []record.Rec) []record.Rec {
		d := r.Get(1)
		if d == 0 {
			return append(out, r)
		}
		c := r.Set(1, d-1)
		return append(out, c, c)
	}, body, forked, ctl))
	g.Add(NewFilter("leaf?", func(r *record.Rec) int {
		if r.Get(1) == 0 {
			return 0
		}
		return 1
	}, forked, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	snk := NewSink("snk", exit)
	g.Add(snk)

	if _, err := g.Run(1_000_000); err != nil {
		t.Fatalf("fork loop: %v", err)
	}
	want := 8 + 16 // 2^3 + 2^4
	if snk.Count() != want {
		t.Fatalf("leaves=%d want %d", snk.Count(), want)
	}
}

// TestLoopWithSpadInside: the full fig. 5a shape — a scratchpad gather in
// the loop body (linked-list walk). Lists are chained in scratchpad memory;
// each thread walks to its list end and reports the final node value.
func TestLoopWithSpadInside(t *testing.T) {
	// Node layout: mem[2i] = value, mem[2i+1] = next index (0xFFFF = nil).
	const nil32 = 0xFFFF
	mem := spad.NewMem(16, 256, 1)
	// Build 8 lists, list k: nodes k, k+8, k+16, ... k+8*(k) → length k+1.
	for k := uint32(0); k < 8; k++ {
		for j := uint32(0); j <= k; j++ {
			idx := k + 8*j
			mem.Write(2*idx, 100*k+j) // value encodes position
			if j == k {
				mem.Write(2*idx+1, nil32)
			} else {
				mem.Write(2*idx+1, idx+8)
			}
		}
	}

	g := NewGraph()
	ext, body, fetched := g.Link("ext"), g.Link("body"), g.Link("fetched")
	recirc, exit := g.Link("recirc"), g.Link("exit")
	ctl := NewLoopCtl()

	// Thread: [listID, nodeIdx, value].
	var recs []record.Rec
	for k := uint32(0); k < 8; k++ {
		recs = append(recs, record.Make(k, k, 0))
	}
	g.Add(NewSource("src", recs, ext))
	g.Add(NewLoopMerge("entry", recirc, ext, body, ctl))
	tile := spad.NewTile(spad.DefaultConfig("nodes"), mem, spad.Spec{
		Op:    spad.OpRead,
		Width: 2,
		Addr:  func(r *record.Rec) uint32 { return 2 * r.Get(1) },
		Apply: func(r *record.Rec, resp []uint32) bool {
			r.Put(2, resp[0]) // value
			r.Put(1, resp[1]) // next
			return true
		},
	}, body, fetched, g.Stats())
	g.Add(tile)
	g.Add(NewFilter("end?", func(r *record.Rec) int {
		if r.Get(1) == nil32 {
			return 0
		}
		return 1
	}, fetched, []Output{
		{Link: exit, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	snk := NewSink("snk", exit)
	g.Add(snk)

	if _, err := g.Run(1_000_000); err != nil {
		t.Fatalf("spad loop: %v", err)
	}
	if snk.Count() != 8 {
		t.Fatalf("exits=%d", snk.Count())
	}
	for _, r := range snk.Records() {
		k := r.Get(0)
		if r.Get(2) != 100*k+k {
			t.Errorf("list %d final value %d, want %d", k, r.Get(2), 100*k+k)
		}
	}
}

func TestDRAMNodeGatherScatter(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	for i := uint32(0); i < 1000; i++ {
		h.WriteWord(i, i*5)
	}
	g := NewGraph()
	g.AttachHBM(h)
	in, mid, out := g.Link("in"), g.Link("mid"), g.Link("out")
	g.Add(NewSource("src", seqRecs(300), in))
	NewDRAMNode(g, "gather", spad.Spec{
		Op:    spad.OpRead,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Apply: func(r *record.Rec, resp []uint32) bool {
			*r = r.Append(resp[0])
			return true
		},
	}, in, mid)
	NewDRAMNode(g, "scatter", spad.Spec{
		Op:    spad.OpWrite,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return 2000 + r.Get(0) },
		Data:  func(r *record.Rec, _ int) uint32 { return r.Get(1) + 1 },
		// Each record writes its own key-indexed slot; no two threads collide.
		DisjointAddrs: true,
	}, mid, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 300 {
		t.Fatalf("got %d", snk.Count())
	}
	for i := uint32(0); i < 300; i++ {
		if v := h.ReadWord(2000 + i); v != i*5+1 {
			t.Fatalf("dram[%d]=%d want %d", 2000+i, v, i*5+1)
		}
	}
}

// TestSinkReserve: a sink reserved for exactly its record count collects
// them in its first backing array, and one that receives more than it
// reserved still collects every record in order.
func TestSinkReserve(t *testing.T) {
	for _, tc := range []struct{ reserve, n int }{{100, 100}, {40, 100}} {
		g := NewGraph()
		a := g.Link("a")
		g.Add(NewSource("src", seqRecs(tc.n), a))
		snk := NewSink("snk", a).Reserve(tc.reserve)
		g.Add(snk)
		base := &snk.recs[:1][0]
		if _, err := g.Run(100_000); err != nil {
			t.Fatal(err)
		}
		if snk.Count() != tc.n {
			t.Fatalf("reserve %d: got %d records, want %d", tc.reserve, snk.Count(), tc.n)
		}
		for i, r := range snk.Records() {
			if r.Get(0) != uint32(i) {
				t.Fatalf("reserve %d: record %d = %d", tc.reserve, i, r.Get(0))
			}
		}
		if moved := &snk.Records()[0] != base; moved != (tc.n > tc.reserve) {
			t.Errorf("reserve %d for %d records: backing array replaced = %v", tc.reserve, tc.n, moved)
		}
	}
}
