package fabric

import (
	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// DRAMExpand fuses a wide DRAM block fetch with a fork tile: each thread
// fetches node blocks (too wide to live in the thread record) and spawns
// zero or more child threads from them. This is the tree-walk primitive of
// figs. 6b and 9: B-tree descent and R-tree window queries fetch one block
// per thread, and a spatial join between two R-trees (fig. 9b) fetches a
// *pair* — one node from each tree — and forks a child per overlapping
// child pair. The matching children enter the pipeline as new threads.
// The block size hides DRAM latency and keeps the pipeline full.
type DRAMExpand struct {
	name   string
	h      *dram.HBM
	legs   []Leg
	expand func(record.Rec, [][]uint32) []record.Rec
	ctl    *LoopCtl
	in     *sim.Link
	out    *sim.Link
	stat   *sim.Stats

	maxOutstanding int
	backlog        ring.Queue[record.Rec]
	outstanding    int
	ready          ring.Queue[record.Rec]
	eosIn          bool
	eos            bool
	one            [1][]uint32 // reused block list: a single-leg completion allocates only its closure

	stallCnt, fetchCnt *sim.Counter
}

// Leg is one block a DRAMExpand thread fetches: Width words at Addr(r).
type Leg struct {
	Width int
	Addr  func(record.Rec) uint32
}

// expandFetch joins the legs of one multi-block fetch: expansion runs
// once every block has arrived.
type expandFetch struct {
	r       record.Rec
	blocks  [][]uint32
	arrived int
}

// maxExpandBlocks bounds the blocks a DRAMExpand keeps in flight; a node
// fetching k blocks per thread admits maxExpandBlocks/k threads.
const maxExpandBlocks = 64

// NewDRAMExpand builds the node. Each thread fetches one block per leg;
// expand receives the thread and the fetched blocks, in leg order, and
// returns the child threads (an empty slice kills the parent). The blocks
// are valid only for the duration of the call. ctl must be the enclosing
// loop's control when the node sits inside a cyclic pipeline.
func NewDRAMExpand(g *Graph, name string, legs []Leg,
	expand func(r record.Rec, blocks [][]uint32) []record.Rec, ctl *LoopCtl, in, out *sim.Link) *DRAMExpand {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	n := &DRAMExpand{
		name: name, h: g.HBM, legs: legs, expand: expand,
		ctl: ctl, in: in, out: out, stat: g.Stats(), maxOutstanding: maxExpandBlocks / len(legs),
	}
	n.stallCnt = n.stat.Counter(name + ".dram_stall")
	n.fetchCnt = n.stat.Counter(name + ".fetches")
	g.Add(n)
	return n
}

// Name implements sim.Component.
func (d *DRAMExpand) Name() string { return d.name }

// InputLinks implements sim.InputPorts.
func (d *DRAMExpand) InputLinks() []*sim.Link { return []*sim.Link{d.in} }

// OutputLinks implements sim.OutputPorts.
func (d *DRAMExpand) OutputLinks() []*sim.Link { return []*sim.Link{d.out} }

// Done implements sim.Component.
func (d *DRAMExpand) Done() bool { return d.eos }

// Idle implements sim.Idler: see DRAMNode.Idle.
func (d *DRAMExpand) Idle(int64) bool {
	if d.ready.Len() > 0 || d.backlog.Len() > 0 {
		return false
	}
	if !d.eosIn && !d.in.Empty() {
		return false
	}
	if d.eosIn && !d.eos && d.outstanding == 0 {
		return false
	}
	return true
}

// SharedState implements sim.StateSharer: the HBM fires this node's
// completion callbacks, and expansions inside a loop mutate its control.
func (d *DRAMExpand) SharedState() []any {
	if d.ctl != nil {
		return []any{d.h, d.ctl}
	}
	return []any{d.h}
}

// WakeHint implements sim.WakeHinter: no self-timed events — progress
// comes from link flits and HBM completions (shared-state partner).
func (d *DRAMExpand) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (d *DRAMExpand) Tick(cycle int64) {
	// Emit matured children, one dense vector per cycle.
	if d.ready.Len() > 0 && d.out.CanPush() {
		n := d.ready.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := d.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			*v.PushRef() = *d.ready.Front()
			d.ready.Drop()
		}
	}
	// Submit fetches, one request per leg.
	for d.backlog.Len() > 0 && d.outstanding < d.maxOutstanding && d.ready.Len() < 8*record.NumLanes {
		r := *d.backlog.Front()
		var f *expandFetch
		if len(d.legs) > 1 {
			f = &expandFetch{r: r, blocks: make([][]uint32, len(d.legs))} // lint:hotalloc-ok per-thread join state, amortized over the DRAM round trip
		}
		sent := 0
		for j, leg := range d.legs {
			if !d.h.SubmitAt(cycle, dram.Request{Addr: leg.Addr(r), Words: leg.Width, Done: d.completer(r, f, j)}) {
				break
			}
			sent++
		}
		if sent == 0 {
			d.stallCnt.Add(1)
			break
		}
		if sent < len(d.legs) {
			// The first leg is in flight (so these arrivals cannot complete
			// the thread); absorb the refused rest functionally, charging
			// one stall.
			d.stallCnt.Add(1)
			for m := sent; m < len(d.legs); m++ {
				f.arrive(m, d.h.SnapshotWords(d.legs[m].Addr(r), d.legs[m].Width))
			}
		}
		d.outstanding++
		d.backlog.Drop()
		d.fetchCnt.Add(1)
	}
	// Accept input.
	if !d.eosIn && !d.in.Empty() && d.backlog.Len() <= 2*record.NumLanes {
		f := d.in.Peek()
		d.in.Drop()
		if f.EOS {
			d.eosIn = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					*d.backlog.PushRefDirty() = f.Vec.Lane[i]
				}
			}
		}
	}
	// Forward EOS once drained.
	if d.eosIn && !d.eos && d.backlog.Len() == 0 && d.outstanding == 0 && d.ready.Len() == 0 && d.out.CanPush() {
		d.out.PushEOS(cycle)
		d.eos = true
	}
}

// completer returns the completion callback of leg j of thread r's fetch,
// one closure per block, amortized over the DRAM round trip. A single-leg
// fetch (f == nil) needs no join state.
func (d *DRAMExpand) completer(r record.Rec, f *expandFetch, j int) func([]uint32) {
	if f == nil {
		return func(data []uint32) { // lint:hotalloc-ok per-request closure, amortized over the DRAM round trip
			d.one[0] = data
			d.complete(r, d.one[:])
		}
	}
	return func(data []uint32) { // lint:hotalloc-ok per-request closure, amortized over the DRAM round trip
		if f.arrive(j, data) {
			d.complete(f.r, f.blocks)
		}
	}
}

// arrive records block j and reports whether every block is now in.
func (f *expandFetch) arrive(j int, data []uint32) bool {
	f.blocks[j] = data
	f.arrived++
	return f.arrived == len(f.blocks)
}

// complete expands a thread whose blocks have all arrived. It runs inside
// the HBM's tick (a completion callback), and DRAMExpand declares that HBM
// via SharedState, so the partner-tick wake re-examines this node's Idle.
func (d *DRAMExpand) complete(r record.Rec, blocks [][]uint32) {
	d.outstanding-- // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	children := d.expand(r, blocks)
	if d.ctl != nil {
		d.ctl.Spawn(len(children) - 1)
	}
	for _, c := range children {
		*d.ready.PushRefDirty() = c // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	}
}
