package fabric

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

func newHBMGraph() *Graph {
	g := NewGraph()
	g.AttachHBM(dram.New(dram.DefaultConfig()))
	return g
}

func TestDRAMScanRoundTrip(t *testing.T) {
	g := newHBMGraph()
	const n = 5000
	words := make([]uint32, 3*n)
	for i := range words {
		words[i] = uint32(i)
	}
	g.HBM.LoadWords(1000, words)
	out := g.Link("out")
	NewDRAMScan(g, "scan", []Extent{{Addr: 1000, Words: 3 * n}}, 3, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != n {
		t.Fatalf("scanned %d records", snk.Count())
	}
	for i, r := range snk.Records() {
		for k := 0; k < 3; k++ {
			if r.Get(k) != uint32(3*i+k) {
				t.Fatalf("record %d field %d = %d (ordering across chunks broken)", i, k, r.Get(k))
			}
		}
	}
}

func TestDRAMScanMultipleExtents(t *testing.T) {
	g := newHBMGraph()
	g.HBM.LoadWords(0, []uint32{1, 2, 3, 4})
	g.HBM.LoadWords(9000, []uint32{5, 6})
	out := g.Link("out")
	NewDRAMScan(g, "scan", []Extent{{Addr: 0, Words: 4}, {Addr: 9000, Words: 2}, {Addr: 0, Words: 0}}, 2, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got := snk.Records()
	if len(got) != 3 || got[2].Get(0) != 5 || got[2].Get(1) != 6 {
		t.Fatalf("got %v", got)
	}
}

func TestDRAMAppendThenScan(t *testing.T) {
	g := newHBMGraph()
	const n = 1000
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i), uint32(i*2))
	}
	mid := g.Link("mid")
	g.Add(NewSource("src", recs, mid))
	app := NewDRAMAppend(g, "app", 4096, 2, mid)
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if app.Count() != n || app.Words() != 2*n {
		t.Fatalf("append: count=%d words=%d", app.Count(), app.Words())
	}
	for i := 0; i < n; i++ {
		if g.HBM.ReadWord(4096+uint32(2*i)) != uint32(i) {
			t.Fatalf("word %d wrong", i)
		}
	}
}

func TestOrderedMergeProducesSortedStream(t *testing.T) {
	g := newHBMGraph()
	rng := rand.New(rand.NewSource(1))
	mkSorted := func(n int) []record.Rec {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = rng.Uint32() % 10000
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out := make([]record.Rec, n)
		for i, k := range keys {
			out[i] = record.Make(k, uint32(i))
		}
		return out
	}
	var ins []*sim.Link
	total := 0
	for i := 0; i < 5; i++ {
		l := g.Link(fmt.Sprintf("in%d", i))
		n := 100 + i*57
		g.Add(NewSource(fmt.Sprintf("src%d", i), mkSorted(n), l))
		ins = append(ins, l)
		total += n
	}
	out := g.Link("out")
	g.Add(NewOrderedMerge("om", func(r record.Rec) uint64 { return uint64(r.Get(0)) }, ins, out))
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got := snk.Records()
	if len(got) != total {
		t.Fatalf("merged %d of %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Get(0) > got[i].Get(0) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestOrderedMergeEmptyInput(t *testing.T) {
	g := newHBMGraph()
	a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
	g.Add(NewSource("sa", []record.Rec{record.Make(1)}, a))
	g.Add(NewSource("sb", nil, b))
	g.Add(NewOrderedMerge("om", func(r record.Rec) uint64 { return uint64(r.Get(0)) }, []*sim.Link{a, b}, out))
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if snk.Count() != 1 {
		t.Fatalf("count=%d", snk.Count())
	}
}

func TestSpillQueueFIFOAndSpills(t *testing.T) {
	g := newHBMGraph()
	const n = 3000 // far beyond the on-chip capacity
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	in, out := g.Link("in"), g.Link("out")
	g.Add(NewSource("src", recs, in))
	sq := NewSpillQueue(g, "sq", 1<<28, 1, 64, in, out)
	// A deliberately slow consumer forces the queue to fill and spill.
	// Spill queues sit on cyclic paths and never forward EOS, so the sink
	// finishes by count.
	snk := &slowSink{in: out, want: n}
	g.Add(snk)
	if _, err := g.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if len(snk.recs) != n {
		t.Fatalf("drained %d of %d", len(snk.recs), n)
	}
	for i, r := range snk.recs {
		if r.Get(0) != uint32(i) {
			t.Fatalf("FIFO order broken at %d: got %d", i, r.Get(0))
		}
	}
	if sq.Spills == 0 {
		t.Error("expected spills with a 64-record on-chip segment and a slow consumer")
	}
}

type slowSink struct {
	in   *sim.Link
	recs []record.Rec
	want int
}

func (s *slowSink) Name() string { return "slow" }
func (s *slowSink) Done() bool   { return len(s.recs) >= s.want }

func (s *slowSink) InputLinks() []*sim.Link { return []*sim.Link{s.in} }
func (s *slowSink) Tick(c int64) {
	if c%4 != 0 || s.in.Empty() {
		return
	}
	f := s.in.Pop()
	if f.EOS {
		return
	}
	s.recs = append(s.recs, f.Vec.Records()...)
}

func TestDRAMExpandSpawnsChildren(t *testing.T) {
	g := newHBMGraph()
	// Memory holds per-slot child counts.
	for i := uint32(0); i < 100; i++ {
		g.HBM.WriteWord(i, i%4)
	}
	in, out := g.Link("in"), g.Link("out")
	recs := make([]record.Rec, 100)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	g.Add(NewSource("src", recs, in))
	NewDRAMExpand(g, "exp", []Leg{{Width: 1, Addr: func(r record.Rec) uint32 { return r.Get(0) }}},
		func(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec {
			for i := uint32(0); i < blocks[0][0]; i++ {
				out = append(out, r.Append(i))
			}
			return out
		}, nil, in, out)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 100; i++ {
		want += i % 4
	}
	if snk.Count() != want {
		t.Fatalf("children=%d want %d", snk.Count(), want)
	}
}

func TestMergeJoinElement(t *testing.T) {
	g := newHBMGraph()
	a := []record.Rec{record.Make(1, 10), record.Make(2, 20), record.Make(2, 21), record.Make(5, 50)}
	b := []record.Rec{record.Make(2, 91), record.Make(2, 92), record.Make(3, 93), record.Make(5, 95)}
	la, lb, out := g.Link("a"), g.Link("b"), g.Link("out")
	g.Add(NewSource("sa", a, la))
	g.Add(NewSource("sb", b, lb))
	key := func(r record.Rec) uint64 { return uint64(r.Get(0)) }
	mj := NewMergeJoin("mj", key, key, func(x, y record.Rec) record.Rec {
		return record.Make(x.Get(0), x.Get(1), y.Get(1))
	}, la, lb, out)
	g.Add(mj)
	snk := NewSink("snk", out)
	g.Add(snk)
	if _, err := g.Run(100_000); err != nil {
		t.Fatal(err)
	}
	// key 2: 2x2 = 4 pairs; key 5: 1 pair.
	if mj.Matches() != 5 || snk.Count() != 5 {
		t.Fatalf("matches=%d sunk=%d, want 5", mj.Matches(), snk.Count())
	}
}
