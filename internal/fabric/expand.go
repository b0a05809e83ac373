package fabric

import (
	"fmt"

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
	expand func(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec
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

	// slots holds each in-flight thread's fetch state; a leg's request
	// tag is slot<<legBits | leg.
	slots ring.Slots[expandSlot]
	one   [1][]uint32  // block list of a single-leg completion
	kids  []record.Rec // reused child buffer the expand function appends into

	stallCnt, fetchCnt *sim.Counter
}

// Leg is one block a DRAMExpand thread fetches: Width words at Addr(r).
type Leg struct {
	Width int
	Addr  func(record.Rec) uint32
}

// expandSlot is one in-flight thread. A multi-leg fetch copies each leg
// into blocks, which the slot owns and reuses, and expands once every leg
// has arrived; a single-leg fetch expands straight from the HBM's buffer.
type expandSlot struct {
	r       record.Rec
	arrived int
	blocks  [][]uint32
}

// legBits is the tag's leg field width: a node fetches at most 1<<legBits
// blocks per thread.
const legBits = 4

// maxExpandBlocks bounds the blocks a DRAMExpand keeps in flight; a node
// fetching k blocks per thread admits maxExpandBlocks/k threads.
const maxExpandBlocks = 64

// NewDRAMExpand builds the node. Each thread fetches one block per leg;
// expand receives the thread and the fetched blocks, in leg order, appends
// the child threads to out and returns it (appending none kills the
// parent). out is a buffer the node owns and reuses, and the blocks are
// valid only for the duration of the call. ctl must be the enclosing
// loop's control when the node sits inside a cyclic pipeline.
func NewDRAMExpand(g *Graph, name string, legs []Leg,
	expand func(r record.Rec, blocks [][]uint32, out []record.Rec) []record.Rec, ctl *LoopCtl, in, out *sim.Link) *DRAMExpand {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	if len(legs) == 0 || len(legs) > 1<<legBits {
		panic(fmt.Sprintf("fabric: dram expand %s: %d legs, want 1..%d", name, len(legs), 1<<legBits))
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
	d.emit(cycle)
	d.submit(cycle)
	d.accept()
	// Forward EOS once drained.
	if d.eosIn && !d.eos && d.backlog.Len() == 0 && d.outstanding == 0 && d.ready.Len() == 0 && d.out.CanPush() {
		d.out.PushEOS(cycle)
		d.eos = true
	}
}

// emit sends matured children, one dense vector per cycle.
func (d *DRAMExpand) emit(cycle int64) {
	if d.ready.Len() == 0 || !d.out.CanPush() {
		return
	}
	n := min(d.ready.Len(), record.NumLanes)
	v := d.out.StageVec(cycle)
	for i := 0; i < n; i++ {
		*v.PushRef() = *d.ready.Front()
		d.ready.Drop()
	}
}

// submit issues fetches, one request per leg, each tagged with the
// thread's slot and its leg.
func (d *DRAMExpand) submit(cycle int64) {
	for d.backlog.Len() > 0 && d.outstanding < d.maxOutstanding && d.ready.Len() < 8*record.NumLanes {
		r := d.backlog.Front()
		slot := d.slots.Alloc()
		s := d.slots.At(slot)
		s.r, s.arrived = *r, 0
		sent := 0
		for j := range d.legs {
			leg := &d.legs[j]
			if !d.h.SubmitAt(cycle, dram.Request{Addr: leg.Addr(*r), Words: leg.Width, To: d, Tag: slot<<legBits | int32(j)}) {
				break
			}
			sent++
		}
		if sent == 0 {
			d.slots.Release(slot)
			d.stallCnt.Add(1)
			break
		}
		if sent < len(d.legs) {
			// The first leg is in flight (so these arrivals cannot complete
			// the thread); absorb the refused rest functionally, charging
			// one stall.
			d.stallCnt.Add(1)
			for m := sent; m < len(d.legs); m++ {
				leg := &d.legs[m]
				b := s.block(m, len(d.legs), leg.Width)
				addr := leg.Addr(*r)
				for i := range b {
					b[i] = d.h.ReadWord(addr + uint32(i))
				}
				s.arrived++
			}
		}
		d.outstanding++
		d.backlog.Drop()
		d.fetchCnt.Add(1)
	}
}

// accept pulls one input vector into the backlog.
func (d *DRAMExpand) accept() {
	if d.eosIn || d.in.Empty() || d.backlog.Len() > 2*record.NumLanes {
		return
	}
	f := d.in.Peek()
	d.in.Drop()
	if f.EOS {
		d.eosIn = true
		return
	}
	for i := 0; i < record.NumLanes; i++ {
		if f.Vec.Mask&(1<<uint(i)) != 0 {
			*d.backlog.PushRefDirty() = f.Vec.Lane[i]
		}
	}
}

// block returns the slot's owned buffer for leg j, sized to width words.
//
// lint:hotalloc-ok — allocates only until each slot's buffers cover every
// leg's width, then reuses them.
func (s *expandSlot) block(j, legs, width int) []uint32 {
	if s.blocks == nil {
		s.blocks = make([][]uint32, legs)
	}
	if cap(s.blocks[j]) < width {
		s.blocks[j] = make([]uint32, width)
	}
	s.blocks[j] = s.blocks[j][:width]
	return s.blocks[j]
}

// Complete implements dram.Completer for leg tag&(1<<legBits-1) of the
// thread in slot tag>>legBits. A single-leg thread expands straight from
// the borrowed block; a multi-leg thread copies the leg into its slot and
// expands once every leg is in.
func (d *DRAMExpand) Complete(tag int32, data []uint32) {
	slot := tag >> legBits
	s := d.slots.At(slot)
	if len(d.legs) == 1 {
		d.one[0] = data
		d.complete(s.r, d.one[:])
	} else {
		copy(s.block(int(tag&(1<<legBits-1)), len(d.legs), len(data)), data)
		s.arrived++
		if s.arrived < len(d.legs) {
			return
		}
		d.complete(s.r, s.blocks)
	}
	d.slots.Release(slot)
}

// complete expands a thread whose blocks have all arrived. It runs inside
// the HBM's tick (a completion callback), and DRAMExpand declares that HBM
// via SharedState, so the partner-tick wake re-examines this node's Idle.
func (d *DRAMExpand) complete(r record.Rec, blocks [][]uint32) {
	d.outstanding-- // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	d.kids = d.expand(r, blocks, d.kids[:0])
	if d.ctl != nil {
		d.ctl.Spawn(len(d.kids) - 1)
	}
	for i := range d.kids {
		*d.ready.PushRefDirty() = d.kids[i] // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	}
}
