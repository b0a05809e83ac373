package core

import (
	"fmt"

	"aurochs/internal/fabric"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// Tree walks (paper §III-A fig. 6b, §IV-C fig. 9): threads recirculate
// through a block-fetch-and-fork stage, walking multiple paths through an
// index simultaneously. A DRAM spill queue on the recirculating path keeps
// fork fan-out from deadlocking the cycle.

// B-tree search thread schema: [lo, hi, ptr, resKey, resVal, mark, tag].
const (
	btLo = iota
	btHi
	btPtr
	btResKey
	btResVal
	btMark
	btTag
)

// RangeQuery is one [Lo, Hi] key-range lookup, tagged by the caller.
type RangeQuery struct {
	Lo, Hi uint32
	Tag    uint32
}

// BTreeSearch runs a batch of range queries against an immutable B-tree on
// the fabric. Results are [key, val, tag] records, one per matching entry.
// Point lookups are ranges with Lo == Hi.
func BTreeSearch(t *btree.Tree, queries []RangeQuery, tun Tuning) ([]record.Rec, Result, error) {
	return BTreeSearchP(t, queries, tun, 1)
}

// BTreeSearchP parallelizes the walk across p independent pipelines
// sharing the HBM, splitting the query batch round-robin.
func BTreeSearchP(t *btree.Tree, queries []RangeQuery, tun Tuning, p int) ([]record.Rec, Result, error) {
	if p <= 0 {
		p = 1
	}
	g := fabric.NewGraph()
	g.AttachHBM(t.HBM)
	g.Workers = tun.Parallelism

	sinks := make([]*fabric.Sink, p)
	for k := 0; k < p; k++ {
		threads := make([]record.Rec, 0, (len(queries)-k+p-1)/p)
		for i := k; i < len(queries); i += p {
			q := queries[i]
			threads = append(threads, record.Make(q.Lo, q.Hi, t.Root, 0, 0, 0, q.Tag))
		}
		sinks[k] = wireTreeWalk(g, fmt.Sprintf("bts%d", k), threads, btree.NodeWords,
			func(r record.Rec) uint32 { return t.NodeAddr(r.Get(btPtr)) },
			expandBTreeNode, btMark,
			func(r *record.Rec) {
				*r = record.Make(r.Get(btResKey), r.Get(btResVal), r.Get(btTag))
			}, uint32(k))
	}
	res, err := runGraph(g, budgetFor(len(queries))*4)
	if err != nil {
		return nil, res, fmt.Errorf("btree search: %w", err)
	}
	return concatSinks(sinks), res, nil
}

// concatSinks joins the pipelines' outputs, in pipeline order, into one
// slice sized to their summed counts.
func concatSinks(sinks []*fabric.Sink) []record.Rec {
	n := 0
	for _, snk := range sinks {
		n += snk.Count()
	}
	out := make([]record.Rec, 0, n)
	for _, snk := range sinks {
		out = append(out, snk.Records()...)
	}
	return out
}

// wireTreeWalk assembles one recirculating fetch-and-fork pipeline: loop
// merge, DRAM expand, route filter, DRAM spill queue on the cyclic path,
// and a projection into the result sink.
func wireTreeWalk(g *fabric.Graph, pf string, threads []record.Rec, nodeWidth int,
	addr func(record.Rec) uint32, expand func(r record.Rec, node []uint32, out []record.Rec) []record.Rec,
	markField int, project func(*record.Rec), spillSlot uint32) *fabric.Sink {

	ctl := fabric.NewLoopCtl()
	ext := g.Link(pf + ".ext")
	body := g.Link(pf + ".body")
	walked := g.Link(pf + ".walked")
	recirc := g.Link(pf + ".recirc")
	recircQ := g.Link(pf + ".recircQ")
	found := g.Link(pf + ".found")

	g.Add(fabric.NewSource(pf+".in", threads, ext))
	g.Add(fabric.NewLoopMerge(pf+".entry", recircQ, ext, body, ctl))
	fabric.NewDRAMExpand(g, pf+".fetch", []fabric.Leg{{Width: nodeWidth, Addr: addr}},
		func(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec { return expand(r, blocks[0], out) },
		ctl, body, walked)
	g.Add(fabric.NewFilter(pf+".route", func(r *record.Rec) int {
		if r.Get(markField) == 1 {
			return 0
		}
		return 1
	}, walked, []fabric.Output{
		{Link: found, Exit: true},
		{Link: recirc, NoEOS: true},
	}, ctl))
	fabric.NewSpillQueue(g, pf+".spill", RegionSpill+spillSlot*(1<<23), record.MaxFields, 256, recirc, recircQ)

	out := g.Link(pf + ".out")
	g.Add(fabric.NewMap(pf+".project", project, found, out))
	snk := fabric.NewSink(pf+".sink", out)
	g.Add(snk)
	return snk
}

// expandBTreeNode is the fork function of the B-tree walk: internal nodes
// spawn one child thread per subtree whose key range can intersect the
// query; leaves spawn one result thread per matching entry. Children are
// appended to out.
func expandBTreeNode(r record.Rec, node []uint32, out []record.Rec) []record.Rec {
	lo, hi := r.Get(btLo), r.Get(btHi)
	hdr := node[0]
	n := int(hdr >> 1)
	isLeaf := hdr&1 == 1
	keys := node[1 : 1+btree.Fanout]
	vals := node[1+btree.Fanout : 1+2*btree.Fanout]
	if isLeaf {
		for i := 0; i < n; i++ {
			if keys[i] >= lo && keys[i] <= hi {
				c := r.Set(btResKey, keys[i])
				c = c.Set(btResVal, vals[i])
				out = append(out, c.Set(btMark, 1))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		// Child i covers [keys[i], keys[i+1]]; the high bound stays
		// inclusive because duplicate runs can spill backward across a
		// node boundary (see btree.childFor).
		low := keys[i]
		if i == 0 {
			low = 0
		}
		high := ^uint32(0)
		if i < n-1 {
			high = keys[i+1]
		}
		if high >= lo && low <= hi {
			out = append(out, r.Set(btPtr, vals[i]).Set(btMark, 0))
		}
	}
	return out
}

// R-tree walk thread schema:
// [qMinX, qMinY, qMaxX, qMaxY, ptr, resID, mark, tag].
const (
	rtMinX = iota
	rtMinY
	rtMaxX
	rtMaxY
	rtPtr
	rtResID
	rtMark
	rtTag
)

// WindowQuery is one rectangle query, tagged by the caller. A spatial
// index-nested-loop join is a batch of window queries — one per probe-side
// record, with the tag carrying the probe row id (fig. 9b).
type WindowQuery struct {
	Rect rtree.Rect
	Tag  uint32
}

// RTreeWindow runs a batch of window queries against a packed R-tree on
// the fabric. Results are [id, tag] records, one per intersecting entry.
// Search paths diverge — overlapping inner rectangles mean a thread forks
// down multiple subtrees — and the spill queue absorbs the fan-out.
func RTreeWindow(t *rtree.Tree, queries []WindowQuery, tun Tuning) ([]record.Rec, Result, error) {
	return RTreeWindowP(t, queries, tun, 1)
}

// RTreeWindowP parallelizes window queries across p pipelines — the
// paper's "multiple smaller window queries in parallel" (§IV-C).
func RTreeWindowP(t *rtree.Tree, queries []WindowQuery, tun Tuning, p int) ([]record.Rec, Result, error) {
	if p <= 0 {
		p = 1
	}
	g := fabric.NewGraph()
	g.AttachHBM(t.HBM)
	g.Workers = tun.Parallelism

	sinks := make([]*fabric.Sink, p)
	for k := 0; k < p; k++ {
		threads := make([]record.Rec, 0, (len(queries)-k+p-1)/p)
		for i := k; i < len(queries); i += p {
			q := queries[i]
			threads = append(threads, record.Make(q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY, t.Root, 0, 0, q.Tag))
		}
		sinks[k] = wireTreeWalk(g, fmt.Sprintf("rtw%d", k), threads, rtree.NodeWords,
			func(r record.Rec) uint32 { return t.NodeAddr(r.Get(rtPtr)) },
			expandRTreeNode, rtMark,
			func(r *record.Rec) {
				*r = record.Make(r.Get(rtResID), r.Get(rtTag))
			}, uint32(16+k))
	}
	res, err := runGraph(g, budgetFor(len(queries))*8)
	if err != nil {
		return nil, res, fmt.Errorf("rtree window: %w", err)
	}
	return concatSinks(sinks), res, nil
}

// expandRTreeNode forks a window-query thread down every child whose
// bounding rectangle intersects the query; leaf entries that intersect
// become result threads. Children are appended to out.
func expandRTreeNode(r record.Rec, node []uint32, out []record.Rec) []record.Rec {
	q := rtree.Rect{MinX: r.Get(rtMinX), MinY: r.Get(rtMinY), MaxX: r.Get(rtMaxX), MaxY: r.Get(rtMaxY)}
	hdr := node[0]
	n := int(hdr >> 1)
	isLeaf := hdr&1 == 1
	for i := 0; i < n; i++ {
		w := 1 + i*5
		e := rtree.Rect{MinX: node[w], MinY: node[w+1], MaxX: node[w+2], MaxY: node[w+3]}
		if !q.Intersects(e) {
			continue
		}
		if isLeaf {
			out = append(out, r.Set(rtResID, node[w+4]).Set(rtMark, 1))
		} else {
			out = append(out, r.Set(rtPtr, node[w+4]).Set(rtMark, 0))
		}
	}
	return out
}
