package core

import (
	"math/rand"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/index/rtree"
)

func randRects(n int, maxC, size uint32, seed int64) []rtree.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rtree.Entry, n)
	for i := range out {
		x, y := rng.Uint32()%maxC, rng.Uint32()%maxC
		out[i] = rtree.Entry{
			Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + rng.Uint32()%size, MaxY: y + rng.Uint32()%size},
			ID:   uint32(i),
		}
	}
	return out
}

func refSpatialJoin(a, b []rtree.Entry) map[[2]uint32]bool {
	out := map[[2]uint32]bool{}
	for _, ea := range a {
		for _, eb := range b {
			if ea.Rect.Intersects(eb.Rect) {
				out[[2]uint32{ea.ID, eb.ID}] = true
			}
		}
	}
	return out
}

func TestRTreeSpatialJoinMatchesReference(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	const maxC = 1 << 14
	ea := randRects(800, maxC, 300, 1)
	eb := randRects(600, maxC, 300, 2)
	ta := rtree.Build(h, RegionTables, ea, maxC)
	tb := rtree.Build(h, RegionTables+(1<<24), eb, maxC)

	pairs, res, err := RTreeSpatialJoin(ta, tb, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.DRAMBytes <= 0 {
		t.Fatalf("timing missing: %+v", res)
	}
	want := refSpatialJoin(ea, eb)
	got := map[[2]uint32]bool{}
	for _, p := range pairs {
		k := [2]uint32{p.A, p.B}
		if got[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("pairs=%d want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing pair %v", k)
		}
	}
}

func TestRTreeSpatialJoinDisjointSpaces(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	ea := randRects(300, 1000, 10, 3)
	eb := randRects(300, 1000, 10, 4)
	for i := range eb {
		eb[i].Rect.MinX += 100000
		eb[i].Rect.MaxX += 100000
	}
	ta := rtree.Build(h, RegionTables, ea, 200000)
	tb := rtree.Build(h, RegionTables+(1<<24), eb, 200000)
	pairs, _, err := RTreeSpatialJoin(ta, tb, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("disjoint spaces produced %d pairs", len(pairs))
	}
}

func TestRTreeSpatialJoinUnevenHeights(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	const maxC = 1 << 14
	ea := randRects(2000, maxC, 100, 5) // tall tree
	eb := randRects(8, maxC, 5000, 6)   // single-leaf tree
	ta := rtree.Build(h, RegionTables, ea, maxC)
	tb := rtree.Build(h, RegionTables+(1<<24), eb, maxC)
	if ta.Height <= tb.Height {
		t.Fatalf("test setup: heights %d vs %d", ta.Height, tb.Height)
	}
	pairs, _, err := RTreeSpatialJoin(ta, tb, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if want := refSpatialJoin(ea, eb); len(pairs) != len(want) {
		t.Fatalf("pairs=%d want %d", len(pairs), len(want))
	}
}

func TestRTreeSpatialJoinRequiresSharedHBM(t *testing.T) {
	ta := rtree.Build(dram.New(dram.DefaultConfig()), 0, randRects(10, 100, 5, 7), 100)
	tb := rtree.Build(dram.New(dram.DefaultConfig()), 0, randRects(10, 100, 5, 8), 100)
	if _, _, err := RTreeSpatialJoin(ta, tb, Tuning{}); err == nil {
		t.Error("separate HBMs accepted")
	}
}

// TestRTreeSpatialJoinSpillsOnNarrowHBM runs a join whose recirculating
// pairs overflow the on-chip spill segment on an HBM with few, shallow
// channel queues (4 channels × depth 2 = 8 bursts). A full 64-record refill
// is 48 bursts, which such an HBM can never accept, so SpillQueue must cap
// its refills at what empty channel queues hold or the join never drains.
func TestRTreeSpatialJoinSpillsOnNarrowHBM(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Channels, cfg.QueueDepth = 4, 2
	h := dram.New(cfg)
	const maxC = 1 << 12
	ea := randRects(1500, maxC, 600, 9)
	eb := randRects(1500, maxC, 600, 10)
	ta := rtree.Build(h, RegionTables, ea, maxC)
	tb := rtree.Build(h, RegionTables+(1<<24), eb, maxC)
	pairs, res, err := RTreeSpatialJoin(ta, tb, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Stats.Get("sj.spill.spilled"); n == 0 {
		t.Fatal("test setup: the join never spilled")
	}
	if want := refSpatialJoin(ea, eb); len(pairs) != len(want) {
		t.Fatalf("pairs=%d want %d", len(pairs), len(want))
	}
}
