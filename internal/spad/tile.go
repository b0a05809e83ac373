package spad

import (
	"fmt"
	"math/bits"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Config sizes one scratchpad stream pipeline.
type Config struct {
	// Name identifies the tile in stats and errors.
	Name string
	// Lanes is the request vector width (default record.NumLanes).
	Lanes int
	// IssueDepth is the per-lane issue queue depth. Aurochs uses 8; the
	// Capstan ablation doubles it to 16 because in-order dequeue cannot
	// free granted slots early (paper §III-B).
	IssueDepth int
	// InOrder selects Capstan's discipline: every queued request still
	// bids to the allocator, but a granted request keeps its issue-queue
	// slot until its whole vector dequeues, and response vectors dequeue
	// in arrival order (head-of-line blocking). Default false = Aurochs
	// reordering, which frees the slot at grant.
	InOrder bool
	// ForwardRMW enables the write→read forwarding path that lets
	// back-to-back RMW ops to the same bank issue every cycle. Without
	// it an RMW holds its bank for two cycles.
	ForwardRMW bool
	// AccessLatency is the SRAM pipeline latency in cycles (default 2).
	AccessLatency int
}

func (c *Config) fill() {
	if c.Lanes == 0 {
		c.Lanes = record.NumLanes
	}
	if c.IssueDepth == 0 {
		if c.InOrder {
			c.IssueDepth = 16
		} else {
			c.IssueDepth = 8
		}
	}
	if c.AccessLatency == 0 {
		c.AccessLatency = 2
	}
	if c.Name == "" {
		c.Name = "spad"
	}
}

// DefaultConfig returns the Aurochs-mode configuration from the paper:
// 16 lanes, issue depth 8 (up to 128 requests considered per cycle),
// reordering allocation, RMW forwarding.
func DefaultConfig(name string) Config {
	c := Config{Name: name, ForwardRMW: true}
	c.fill()
	return c
}

// slot holds one thread request from accept until it leaves the tile. The
// record is copied in once at accept and out once at emit (or into the ROB
// in in-order mode); only int32 slot handles move through the age lists,
// pending and ready.
type slot struct {
	rec  record.Rec
	done int64 // cycle the bank access completes
	seq  int64 // arrival vector sequence (in-order mode)
	addr uint32
	next int32 // next handle in this slot's (lane, bank) age list or in the freelist; -1 ends it
	lane int32
}

// arrival is one accepted request's lane, kept in arrival order so the
// in-order discipline can release lane capacity when its vector dequeues.
type arrival struct {
	seq  int64
	lane int32
}

// Tile is one stream pipeline of a scratchpad: issue queues, allocator,
// banks, and the response compactor that re-vectorizes completed threads.
// It is a sim.Component wired between an input and an output link.
type Tile struct {
	cfg   Config
	mem   *Mem
	spec  Spec // lint:sharedstate-ok — Spec (incl. its schemas) is immutable after construction
	in    *sim.Link
	out   *sim.Link
	stats *sim.Stats

	// slots is the request arena, growing once to the resident population
	// and then recycling through the freelist headed by free. Slot h owns
	// the response words resp[h*respW : (h+1)*respW] (respW is 0 for
	// OpWrite, which has no response).
	slots []slot
	resp  []uint32
	respW int
	free  int32
	// laneOcc counts each lane's occupied issue-queue slots: released at
	// grant in Aurochs mode, at vector dequeue (through arrivals) in
	// in-order mode.
	laneOcc  []int32
	arrivals ring.Queue[arrival]
	bankBusy []int64 // bank free again at this cycle
	// pending is FIFO by completion time: every grant's done stamp is
	// cycle + AccessLatency + busy - 1 with busy fixed per tile config, so
	// later grants never complete earlier and retire can stop at the first
	// unfinished op instead of scanning (and compacting) the whole window.
	pending  ring.Queue[int32]
	ready    ring.Queue[int32] // completed threads awaiting output vectorization
	rob      map[int64][]record.Rec
	robFree  [][]record.Rec   // recycled ROB slot slices (in-order mode)
	robLive  map[int64]uint32 // lanes with a retired record per seq
	robCount map[int64]int    // outstanding requests per seq (in-order mode)
	robHead  int64
	seq      int64
	rr       int
	eosIn    bool
	eosSent  bool

	// Allocator state. Each (lane, bank) pair keeps a FIFO age list of its
	// un-granted slots, linked through slot.next, at ageHead/ageTail
	// [lane*banks+bank] (-1 when empty). A list head is exactly the oldest
	// un-granted request of that lane for that bank, the one the
	// age-ordered grant picks, so the matching reads list heads instead of
	// scanning issue queues.
	banks   int // t.mem.Banks(), hoisted
	width   int // t.spec.width(), hoisted
	nq      int // total occupied issue-queue slots (incl. granted)
	ageHead []int32
	ageTail []int32
	// Bit-mirrors of the age lists: bit l of laneMask[bank] is set iff
	// lane l's list for bank is non-empty, and bit b of bankBidMask iff
	// laneMask[b] != 0. The allocator rotates these by rr and walks set
	// bits with TrailingZeros, which visits exactly the banks/lanes a
	// rotated scan would in the same priority order. Used only while banks
	// and Lanes both fit in 64 bits (maskable).
	bankBidMask uint64
	laneMask    []uint64
	maskable    bool
	issued      []bool // the reference scan's lanes granted this cycle (!maskable)

	cGrants, cConf, cReq *sim.Counter
	cDropped, cRespStall *sim.Counter
	cInStall, cOutStall  *sim.Counter
}

// NewTile builds a scratchpad stream pipeline over mem, reading thread
// vectors from in and writing updated thread vectors to out.
func NewTile(cfg Config, mem *Mem, spec Spec, in, out *sim.Link, stats *sim.Stats) *Tile {
	cfg.fill()
	if spec.Addr == nil {
		panic("spad: spec.Addr is required")
	}
	if spec.Op == OpModify {
		if spec.Modify == nil && spec.Combiner != nil {
			// Derive the modify function from the declared combiner so the
			// classified path needs no redundant closure.
			comb, data := spec.Combiner, spec.Data
			spec.Modify = func(cur uint32, r *record.Rec) uint32 {
				var arg uint32
				if data != nil {
					arg = data(r, 0)
				}
				return comb.Fn(cur, arg)
			}
		}
		if spec.Modify == nil {
			panic("spad: spec.Modify or spec.Combiner required for modify op")
		}
	} else if (spec.Op == OpWrite || spec.Op.IsRMW()) && spec.Data == nil {
		panic(fmt.Sprintf("spad: spec.Data required for %s", spec.Op))
	}
	t := &Tile{
		cfg:        cfg,
		mem:        mem,
		spec:       spec,
		in:         in,
		out:        out,
		stats:      stats,
		free:       -1,
		laneOcc:    make([]int32, cfg.Lanes),
		bankBusy:   make([]int64, mem.Banks()),
		rob:        make(map[int64][]record.Rec),
		robLive:    make(map[int64]uint32),
		robCount:   make(map[int64]int),
		banks:      mem.Banks(),
		ageHead:    make([]int32, cfg.Lanes*mem.Banks()),
		ageTail:    make([]int32, cfg.Lanes*mem.Banks()),
		laneMask:   make([]uint64, mem.Banks()),
		maskable:   mem.Banks() <= 64 && cfg.Lanes <= 64,
		cGrants:    stats.Counter(cfg.Name + ".grants"),
		cConf:      stats.Counter(cfg.Name + ".conflicts"),
		cReq:       stats.Counter(cfg.Name + ".requests"),
		cDropped:   stats.Counter(cfg.Name + ".dropped"),
		cRespStall: stats.Counter(cfg.Name + ".resp_stall"),
		cInStall:   stats.Counter(cfg.Name + ".in_stall"),
		cOutStall:  stats.Counter(cfg.Name + ".out_stall"),
	}
	t.width = t.spec.width()
	if spec.Op != OpWrite {
		t.respW = t.width
	}
	if !t.maskable {
		t.issued = make([]bool, cfg.Lanes)
	}
	for i := range t.ageHead {
		t.ageHead[i], t.ageTail[i] = -1, -1
	}
	return t
}

// Name implements sim.Component.
func (t *Tile) Name() string { return t.cfg.Name }

// InputLinks implements sim.InputPorts.
func (t *Tile) InputLinks() []*sim.Link { return []*sim.Link{t.in} }

// OutputLinks implements sim.OutputPorts.
func (t *Tile) OutputLinks() []*sim.Link { return []*sim.Link{t.out} }

// InputSchemas implements sim.TypedPorts from the Spec's In declaration.
func (t *Tile) InputSchemas() []*record.Schema {
	if t.spec.In == nil {
		return nil
	}
	return []*record.Schema{t.spec.In}
}

// OutputSchemas implements sim.TypedPorts from the Spec's Out declaration.
func (t *Tile) OutputSchemas() []*record.Schema {
	if t.spec.Out == nil {
		return nil
	}
	return []*record.Schema{t.spec.Out}
}

// Reordering implements sim.ReorderSemantics: the stream's class comes from
// its Spec, and the pipeline reorders thread responses exactly when it is
// not configured for Capstan's in-order dequeue.
func (t *Tile) Reordering() sim.ReorderDecl { return t.spec.Decl(!t.cfg.InOrder) }

// ResidentBound bounds the thread records simultaneously buffered inside
// the tile, for the token-flow prover's occupancy accounting: the issue
// queues (Lanes × IssueDepth slots) plus the response-side window. allocate
// grants only while fewer than 4×Lanes responses are ready or pending, but
// checks that before granting, and one cycle grants up to min(Lanes, Banks)
// requests, so the window can reach 4×Lanes - 1 + min(Lanes, Banks).
func (t *Tile) ResidentBound() int {
	return t.cfg.Lanes*t.cfg.IssueDepth + 4*t.cfg.Lanes + min(t.cfg.Lanes, t.banks) - 1
}

// LossyDecl exposes the stream's declared drop behaviour (Spec.Lossy and
// its waiver) to the token-flow prover.
func (t *Tile) LossyDecl() (lossy bool, waiver string) {
	return t.spec.Lossy, t.spec.LossyWaiver
}

// Done implements sim.Component.
func (t *Tile) Done() bool { return t.eosSent }

// Idle implements sim.Idler: the pipeline is quiescent when nothing is
// queued, pending, or ready, no input is poppable, and EOS (if due) has
// been sent.
func (t *Tile) Idle(int64) bool {
	if t.pending.Len() > 0 || t.ready.Len() > 0 || t.nq > 0 {
		return false
	}
	if t.cfg.InOrder && t.robHead < t.seq {
		return false
	}
	if !t.eosIn && !t.in.Empty() {
		return false
	}
	if t.eosIn && !t.eosSent {
		return false
	}
	return true
}

// SharedState implements sim.StateSharer: tiles mutate their backing Mem
// at grant time, and several tiles may share one Mem.
func (t *Tile) SharedState() []any { return []any{t.mem} }

// WakeHint implements sim.WakeHinter: Idle reports non-idle whenever any
// operation is queued, pending, or ready, so a sleeping tile holds no
// maturing state — only a link flit can produce work.
func (t *Tile) WakeHint(int64) int64 { return sim.WakeNever }

// WorstCaseInternalLatency implements sim.LatencyBound: a full set of
// issue queues drains through the banks in at most depth×lanes grants,
// each completing AccessLatency+width cycles later.
func (t *Tile) WorstCaseInternalLatency() int64 {
	return int64(t.cfg.IssueDepth*t.cfg.Lanes) + int64(t.cfg.AccessLatency) + int64(t.spec.width()) + 64
}

// Tick implements sim.Component: retire, allocate, emit, accept.
func (t *Tile) Tick(cycle int64) {
	t.retire(cycle)
	t.allocate(cycle)
	t.emit(cycle)
	t.accept(cycle)
	t.finishEOS(cycle)
}

// retire completes bank operations whose latency elapsed and applies the
// response to the thread record. pending is FIFO by done (see field doc),
// so the loop stops at the first unfinished op.
func (t *Tile) retire(cycle int64) {
	for t.pending.Len() > 0 {
		h := *t.pending.Front()
		s := &t.slots[h]
		if s.done > cycle {
			return
		}
		t.pending.Drop()
		keep := true
		if t.spec.Apply != nil {
			keep = t.spec.Apply(&s.rec, t.respOf(h))
		}
		if !keep {
			t.cDropped.Add(1)
			t.retireSeq(s.seq)
			t.freeSlot(h)
			continue
		}
		if !t.cfg.InOrder {
			// Ring capacity is bounded by the response-side backpressure in
			// allocate, so the backing array stops growing at steady state.
			t.ready.Push(h) // lint:hotalloc-ok bounded by backpressure, ring reuses its array
			continue
		}
		// Reassemble the vector in lane order: Capstan preserves stream
		// order exactly.
		slots := t.rob[s.seq]
		if slots == nil {
			if n := len(t.robFree); n > 0 {
				// Reuse a slice released by emitInOrder: the ROB
				// population is bounded, so the freelist covers
				// steady state without fresh allocation.
				slots = t.robFree[n-1]
				t.robFree = t.robFree[:n-1]
				clear(slots)
			} else {
				slots = make([]record.Rec, t.cfg.Lanes) // lint:hotalloc-ok freelist warmup, bounded by the in-flight window
			}
		}
		slots[s.lane] = s.rec
		// The reorder window is bounded by issue-queue backpressure, so
		// the maps' bucket arrays stop growing once it is covered.
		t.rob[s.seq] = slots                  // lint:hotalloc-ok bounded reorder window, buckets reused after delete
		t.robLive[s.seq] |= 1 << uint(s.lane) // lint:hotalloc-ok bounded reorder window, buckets reused after delete
		t.retireSeq(s.seq)
		t.freeSlot(h)
	}
}

// respOf returns slot h's response words, or nil for OpWrite. The slice is
// capped so an Apply that appends to it cannot spill into the next slot.
func (t *Tile) respOf(h int32) []uint32 {
	if t.respW == 0 {
		return nil
	}
	lo := int(h) * t.respW
	return t.resp[lo : lo+t.respW : lo+t.respW]
}

// newSlot takes a slot from the freelist, growing the arena only until it
// covers the tile's resident population.
func (t *Tile) newSlot() int32 {
	if h := t.free; h >= 0 {
		t.free = t.slots[h].next
		return h
	}
	t.slots = append(t.slots, slot{}) // lint:hotalloc-ok arena warmup, bounded by ResidentBound
	for i := 0; i < t.respW; i++ {
		t.resp = append(t.resp, 0) // lint:hotalloc-ok arena warmup, bounded by ResidentBound
	}
	return int32(len(t.slots) - 1)
}

func (t *Tile) freeSlot(h int32) {
	t.slots[h].next = t.free
	t.free = h
}

func (t *Tile) retireSeq(seq int64) {
	if !t.cfg.InOrder {
		return
	}
	t.robCount[seq]--
}

// allocate is the single-cycle lane↔bank matching (paper fig. 2b): every
// un-granted issue-queue slot bids for its bank; each bank grants at most
// one request and each lane issues at most one, the oldest of its requests
// for that bank. Granted slots are invalidated immediately in Aurochs mode,
// freeing the slot for a new thread.
func (t *Tile) allocate(cycle int64) {
	if t.ready.Len()+t.pending.Len() >= 4*t.cfg.Lanes {
		// Response-side backpressure: stop granting when the output
		// compactor is saturated so the pipeline stays bounded.
		t.cRespStall.Add(1)
		return
	}
	granted := 0
	if t.maskable {
		// Greedy maximal matching (paper fig. 2b) over the bid masks: visit
		// banks with live bids in rotated order (b+rr)&(banks-1), and for
		// each, the first non-issued lane with a live bid for it in rotated
		// order (l+rr)%Lanes. Rotating the mask by rr and taking set bits in
		// ascending position reproduces those sequences exactly, so the
		// grant order — and therefore all simulated state — is unchanged.
		var issued uint64
		br := t.rr & (t.banks - 1)
		bm := (t.bankBidMask>>uint(br) | t.bankBidMask<<uint(t.banks-br)) & (uint64(1)<<uint(t.banks) - 1)
		lmod := t.cfg.Lanes
		lr := t.rr % lmod
		lfull := uint64(1)<<uint(lmod) - 1
		for bm != 0 {
			p := bits.TrailingZeros64(bm)
			bm &= bm - 1
			bank := (p + br) & (t.banks - 1)
			if t.bankBusy[bank] > cycle {
				continue
			}
			lm := t.laneMask[bank] &^ issued
			if lm == 0 {
				continue
			}
			lrot := (lm>>uint(lr) | lm<<uint(lmod-lr)) & lfull
			lane := bits.TrailingZeros64(lrot) + lr
			if lane >= lmod {
				lane -= lmod
			}
			t.grant(cycle, lane, bank)
			issued |= uint64(1) << uint(lane)
			granted++
		}
	} else {
		// Reference scan for degenerate geometries (>64 banks or lanes).
		issued := t.issued
		clear(issued)
		for b := 0; b < t.banks; b++ {
			bank := (b + t.rr) & (t.banks - 1)
			if t.bankBusy[bank] > cycle {
				continue
			}
			for l := 0; l < t.cfg.Lanes; l++ {
				lane := (l + t.rr) % t.cfg.Lanes
				if issued[lane] || t.ageHead[lane*t.banks+bank] < 0 {
					continue
				}
				t.grant(cycle, lane, bank)
				issued[lane] = true
				granted++
				break
			}
		}
	}
	t.rr++
	if granted > 0 {
		t.cGrants.Add(int64(granted))
	}
	// Conflicts: requests that wanted service this cycle but were not
	// granted (a direct proxy for bank-conflict serialization).
	if t.nq > granted {
		t.cConf.Add(int64(t.nq - granted))
	}
}

// grant executes the oldest un-granted request of lane for bank (the head
// of its age list) and schedules its retirement. Memory state mutates at
// grant time, which is what serializes same-address atomics (same address
// ⇒ same bank ⇒ at most one grant per cycle).
//
// In Aurochs mode the request's issue-queue slot frees immediately — the
// property that halves the required queue depth. In Capstan (in-order)
// mode it stays occupied until its whole vector dequeues.
func (t *Tile) grant(cycle int64, lane, bank int) {
	i := lane*t.banks + bank
	h := t.ageHead[i]
	s := &t.slots[h]
	t.ageHead[i] = s.next
	if s.next < 0 {
		t.ageTail[i] = -1
		if t.laneMask[bank] &^= uint64(1) << uint(lane); t.laneMask[bank] == 0 {
			t.bankBidMask &^= uint64(1) << uint(bank)
		}
	}

	w := t.width
	resp := t.respOf(h)
	switch t.spec.Op {
	case OpRead:
		for i := 0; i < w; i++ {
			resp[i] = t.mem.Read(s.addr + uint32(i))
		}
	case OpWrite:
		for i := 0; i < w; i++ {
			t.mem.Write(s.addr+uint32(i), t.spec.Data(&s.rec, i))
		}
	case OpCAS:
		cur := t.mem.Read(s.addr)
		if cur == t.spec.Data(&s.rec, 0) {
			t.mem.Write(s.addr, t.spec.Data(&s.rec, 1))
		}
		resp[0] = cur
	case OpFAA:
		cur := t.mem.Read(s.addr)
		t.mem.Write(s.addr, cur+t.spec.Data(&s.rec, 0))
		resp[0] = cur
	case OpXCHG:
		cur := t.mem.Read(s.addr)
		t.mem.Write(s.addr, t.spec.Data(&s.rec, 0))
		resp[0] = cur
	case OpModify:
		cur := t.mem.Read(s.addr)
		t.mem.Write(s.addr, t.spec.Modify(cur, &s.rec))
		resp[0] = cur
	}

	// Bank occupancy: a width-w access streams w fields through the bank;
	// an RMW occupies its bank for two stages unless the forwarding path
	// lets the next RMW issue back-to-back.
	busy := int64(w)
	if t.spec.Op.IsRMW() && !t.cfg.ForwardRMW {
		busy = 2
	}
	t.bankBusy[bank] = cycle + busy
	s.done = cycle + int64(t.cfg.AccessLatency) + busy - 1
	// Grows to the bounded in-flight population once; the ring reuses its
	// backing array at steady state.
	t.pending.Push(h) // lint:hotalloc-ok bounded in-flight ops, ring reuses its array

	if !t.cfg.InOrder {
		t.laneOcc[lane]--
		t.nq--
	}
}

// emit vectorizes completed threads and pushes at most one dense vector per
// cycle downstream.
func (t *Tile) emit(cycle int64) {
	if !t.out.CanPush() {
		t.cOutStall.Add(1)
		return
	}
	if t.cfg.InOrder {
		t.emitInOrder(cycle)
		return
	}
	n := t.ready.Len()
	if n == 0 {
		return
	}
	if n > record.NumLanes {
		n = record.NumLanes
	}
	v := t.out.StageVec(cycle)
	for i := 0; i < n; i++ {
		h := *t.ready.Front()
		t.ready.Drop()
		*v.PushRef() = t.slots[h].rec
		t.freeSlot(h)
	}
}

// emitInOrder releases the oldest vector only once all of its requests have
// retired — Capstan's head-of-line-blocking dequeue.
func (t *Tile) emitInOrder(cycle int64) {
	if t.robHead >= t.seq {
		return
	}
	if t.robCount[t.robHead] != 0 {
		return // straggler request still outstanding
	}
	slots := t.rob[t.robHead]
	live := t.robLive[t.robHead]
	if live != 0 {
		// Stage straight into the link slot: no stack vector to copy in.
		v := t.out.StageVec(cycle)
		for lane := 0; lane < t.cfg.Lanes; lane++ {
			if live&(1<<uint(lane)) != 0 {
				*v.PushRef() = slots[lane]
			}
		}
	}
	if slots != nil {
		t.robFree = append(t.robFree, slots) // lint:hotalloc-ok freelist growth bounded by the in-flight window
	}
	delete(t.rob, t.robHead)
	delete(t.robCount, t.robHead)
	delete(t.robLive, t.robHead)
	// Vector dequeue frees this vector's issue-queue slots — the point
	// where Capstan reclaims space that Aurochs reclaimed at grant time.
	// Its requests were all granted, so only lane occupancy changes.
	for t.arrivals.Len() > 0 && t.arrivals.Front().seq == t.robHead {
		t.laneOcc[t.arrivals.Front().lane]--
		t.nq--
		t.arrivals.Drop()
	}
	t.robHead++
}

// accept pops an input vector when every valid lane has queue space.
func (t *Tile) accept(cycle int64) {
	if t.eosIn || t.in.Empty() {
		return
	}
	f := t.in.Peek()
	if f.EOS {
		t.in.Drop()
		t.eosIn = true
		return
	}
	// Valid lanes are visited as set bits of the mask, in ascending order.
	for m := f.Vec.Mask; m != 0; m &= m - 1 {
		if int(t.laneOcc[t.queueLane(bits.TrailingZeros16(m))]) >= t.cfg.IssueDepth {
			t.cInStall.Add(1)
			return
		}
	}
	t.in.Drop()
	seq := t.seq
	t.seq++
	count := 0
	for m := f.Vec.Mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		r := &f.Vec.Lane[i]
		addr := t.spec.Addr(r)
		if int(addr)+t.width > t.mem.Words() {
			panic(fmt.Sprintf("%s: address %d+%d out of range (%d words)", t.cfg.Name, addr, t.width, t.mem.Words()))
		}
		lane := t.queueLane(i)
		bank := t.mem.Bank(addr)
		h := t.newSlot()
		s := &t.slots[h]
		s.rec = *r
		s.addr = addr
		s.seq = seq
		s.lane = int32(lane)
		s.next = -1
		// Append to the (lane, bank) age list.
		j := lane*t.banks + bank
		if tail := t.ageTail[j]; tail >= 0 {
			t.slots[tail].next = h
		} else {
			t.ageHead[j] = h
			t.laneMask[bank] |= uint64(1) << uint(lane)
			t.bankBidMask |= uint64(1) << uint(bank)
		}
		t.ageTail[j] = h
		t.laneOcc[lane]++
		t.nq++
		if t.cfg.InOrder {
			t.arrivals.Push(arrival{seq: seq, lane: int32(lane)}) // lint:hotalloc-ok bounded by issue-queue capacity, ring reuses its array
		}
		count++
	}
	if t.cfg.InOrder {
		t.robCount[seq] = count // lint:hotalloc-ok bounded reorder window, buckets reused after delete
	}
	t.cReq.Add(int64(count))
}

// queueLane maps vector lane i to its issue-queue lane, i mod Lanes. The
// division is skipped when Lanes covers the vector width, as it does at the
// default geometry.
func (t *Tile) queueLane(i int) int {
	if i < t.cfg.Lanes {
		return i
	}
	return i % t.cfg.Lanes
}

// finishEOS forwards end-of-stream once the pipeline has fully drained.
func (t *Tile) finishEOS(cycle int64) {
	if t.eosSent || !t.eosIn {
		return
	}
	if t.nq > 0 || t.pending.Len() > 0 || t.ready.Len() > 0 {
		return
	}
	if t.cfg.InOrder && t.robHead < t.seq {
		return
	}
	if !t.out.CanPush() {
		return
	}
	t.out.PushEOS(cycle)
	t.eosSent = true
}
