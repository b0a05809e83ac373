package core

import (
	"fmt"

	"aurochs/internal/fabric"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// Spatial join between two R-tree indices (paper fig. 9b): a synchronized
// descent where each thread holds a *pair* of nodes, one from each tree,
// and forks a child thread per overlapping child pair. Leaf×leaf pairs emit
// matches. Mismatched tree heights descend the deeper side alone.
//
// Join-thread schema: [ptrA, leafA, ptrB, leafB, outA, outB, mark].
const (
	sjPtrA = iota
	sjLeafA
	sjPtrB
	sjLeafB
	sjOutA
	sjOutB
	sjMark
)

// SpatialJoinPair is one match: entry IDs from each tree whose rectangles
// intersect.
type SpatialJoinPair struct {
	A, B uint32
}

// RTreeSpatialJoin joins two packed R-trees on rectangle intersection,
// returning every (idA, idB) pair. Both trees must live on the same HBM.
func RTreeSpatialJoin(a, b *rtree.Tree, tun Tuning) ([]SpatialJoinPair, Result, error) {
	if a.HBM != b.HBM {
		return nil, Result{}, fmt.Errorf("core: spatial join requires both trees on one HBM")
	}
	if a.Len == 0 || b.Len == 0 {
		return nil, Result{}, nil
	}
	g := fabric.NewGraph()
	g.AttachHBM(a.HBM)
	g.Workers = tun.Parallelism

	ctl := fabric.NewLoopCtl()
	ext := g.Link("sj.ext")
	body := g.Link("sj.body")
	walked := g.Link("sj.walked")
	recirc := g.Link("sj.recirc")
	recircQ := g.Link("sj.recircQ")
	found := g.Link("sj.found")

	root := record.Make(a.Root, 0, b.Root, 0, 0, 0, 0)
	g.Add(fabric.NewSource("sj.in", []record.Rec{root}, ext))
	g.Add(fabric.NewLoopMerge("sj.entry", recircQ, ext, body, ctl))

	fabric.NewDRAMExpand(g, "sj.fetch", []fabric.Leg{
		{Width: rtree.NodeWords, Addr: func(r record.Rec) uint32 { return a.NodeAddr(r.Get(sjPtrA)) }},
		{Width: rtree.NodeWords, Addr: func(r record.Rec) uint32 { return b.NodeAddr(r.Get(sjPtrB)) }},
	}, expandJoinPair, ctl, body, walked)

	g.Add(fabric.NewFilter("sj.route", func(r *record.Rec) int {
		if r.Get(sjMark) == 1 {
			return 0
		}
		return 1
	}, walked, []fabric.Output{
		{Link: found, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	fabric.NewSpillQueue(g, "sj.spill", RegionSpill+(1<<24), record.MaxFields, 256, recirc, recircQ)

	snk := fabric.NewSink("sj.sink", found)
	g.Add(snk)

	res, err := runGraph(g, int64(a.Len+b.Len)*400+2_000_000)
	if err != nil {
		return nil, res, fmt.Errorf("spatial join: %w", err)
	}
	out := make([]SpatialJoinPair, snk.Count())
	for i, r := range snk.Records() {
		out[i] = SpatialJoinPair{A: r.Get(sjOutA), B: r.Get(sjOutB)}
	}
	return out, res, nil
}

// nodeEnts decodes a fetched R-tree block.
func nodeEnts(block []uint32) (isLeaf bool, ents []rtree.Entry) {
	hdr := block[0]
	n := int(hdr >> 1)
	isLeaf = hdr&1 == 1
	ents = make([]rtree.Entry, n)
	for i := 0; i < n; i++ {
		w := 1 + i*5
		ents[i] = rtree.Entry{
			Rect: rtree.Rect{MinX: block[w], MinY: block[w+1], MaxX: block[w+2], MaxY: block[w+3]},
			ID:   block[w+4],
		}
	}
	return isLeaf, ents
}

// mbr unions a node's entries.
func mbr(ents []rtree.Entry) rtree.Rect {
	out := ents[0].Rect
	for _, e := range ents[1:] {
		if e.Rect.MinX < out.MinX {
			out.MinX = e.Rect.MinX
		}
		if e.Rect.MinY < out.MinY {
			out.MinY = e.Rect.MinY
		}
		if e.Rect.MaxX > out.MaxX {
			out.MaxX = e.Rect.MaxX
		}
		if e.Rect.MaxY > out.MaxY {
			out.MaxY = e.Rect.MaxY
		}
	}
	return out
}

// expandJoinPair is the synchronized-descent fork: overlapping child pairs
// become child threads; leaf×leaf overlaps become matches; when only one
// side is a leaf, the other side descends alone against the leaf's MBR.
// Children are appended to out.
func expandJoinPair(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec {
	leafA, entsA := nodeEnts(blocks[0])
	leafB, entsB := nodeEnts(blocks[1])
	if len(entsA) == 0 || len(entsB) == 0 {
		return out
	}
	switch {
	case leafA && leafB:
		for _, ea := range entsA {
			for _, eb := range entsB {
				if ea.Rect.Intersects(eb.Rect) {
					c := r.Set(sjOutA, ea.ID)
					c = c.Set(sjOutB, eb.ID)
					out = append(out, c.Set(sjMark, 1))
				}
			}
		}
	case leafA: // descend B against A's bounds
		box := mbr(entsA)
		for _, eb := range entsB {
			if box.Intersects(eb.Rect) {
				out = append(out, r.Set(sjPtrB, eb.ID).Set(sjMark, 0))
			}
		}
	case leafB: // descend A against B's bounds
		box := mbr(entsB)
		for _, ea := range entsA {
			if box.Intersects(ea.Rect) {
				out = append(out, r.Set(sjPtrA, ea.ID).Set(sjMark, 0))
			}
		}
	default:
		for _, ea := range entsA {
			for _, eb := range entsB {
				if ea.Rect.Intersects(eb.Rect) {
					c := r.Set(sjPtrA, ea.ID)
					c = c.Set(sjPtrB, eb.ID)
					out = append(out, c.Set(sjMark, 0))
				}
			}
		}
	}
	return out
}
