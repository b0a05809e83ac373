package fabric

import (
	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// Extent is a dense run of words in DRAM.
type Extent struct {
	Addr  uint32
	Words int
}

// DRAMScan streams records out of a list of DRAM extents: the dense-read
// path used to load partitions, LSM runs, and table columns. Each extent is
// fetched with wide sequential reads (row-buffer friendly), then chopped
// into recWords-sized records emitted at up to one vector per cycle.
type DRAMScan struct {
	name     string
	h        *dram.HBM
	extents  []Extent
	recWords int
	out      *sim.Link

	chunks      []Extent // extents chopped to queue-friendly requests
	next        int
	outstanding int
	// held is a ring of chunks that completed ahead of appendNext, each
	// copied into a buffer its ring entry owns; the chunk with sequence
	// number seq sits at (heldHead + seq - appendNext) mod len(held).
	held       []heldChunk
	heldHead   int
	appendNext int
	buf        []uint32
	bufHead    int // consumed prefix of buf; compacted, never resliced away
	eos        bool
	schema     *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

// heldChunk is one entry of DRAMScan's reorder ring.
type heldChunk struct {
	data []uint32
	ok   bool
}

// scanWindow is the most chunk reads a DRAMScan keeps in flight.
const scanWindow = 8

// scanChunkWords bounds one DRAM request from a scan: small enough that a
// request always fits the channel queues, large enough to stay row-buffer
// friendly.
const scanChunkWords = 512

// NewDRAMScan builds a scan over extents, emitting recWords-word records.
func NewDRAMScan(g *Graph, name string, extents []Extent, recWords int, out *sim.Link) *DRAMScan {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	if recWords <= 0 || recWords > record.MaxFields {
		panic("fabric: scan recWords out of range")
	}
	s := &DRAMScan{name: name, h: g.HBM, extents: extents, recWords: recWords, out: out,
		held: make([]heldChunk, scanWindow)}
	for _, e := range extents {
		for off := 0; off < e.Words; off += scanChunkWords {
			n := e.Words - off
			if n > scanChunkWords {
				n = scanChunkWords
			}
			s.chunks = append(s.chunks, Extent{Addr: e.Addr + uint32(off), Words: n})
		}
	}
	g.Add(s)
	return s
}

// Name implements sim.Component.
func (s *DRAMScan) Name() string { return s.name }

// OutputLinks implements sim.OutputPorts.
func (s *DRAMScan) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component.
func (s *DRAMScan) Done() bool { return s.eos }

// buffered returns the word count awaiting record assembly.
func (s *DRAMScan) buffered() int { return len(s.buf) - s.bufHead }

// Idle implements sim.Idler: mirrors Tick's issue/emit/EOS conditions.
func (s *DRAMScan) Idle(int64) bool {
	if s.next < len(s.chunks) && s.outstanding < scanWindow && s.buffered() < 4096 {
		return false
	}
	if s.buffered() >= s.recWords && s.out.CanPush() {
		return false
	}
	if !s.eos && s.next == len(s.chunks) && s.outstanding == 0 {
		return false
	}
	return true
}

// SharedState implements sim.StateSharer: the HBM fires this node's
// completion callbacks.
func (s *DRAMScan) SharedState() []any { return []any{s.h} }

// WakeHint implements sim.WakeHinter: no self-timed events — progress
// comes from HBM completions (shared-state partner) and link credit.
func (s *DRAMScan) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *DRAMScan) Tick(cycle int64) {
	// Issue chunk reads while the reorder window has room. Completions
	// may arrive out of order across channels; they append to the stream
	// strictly in sequence.
	for s.next < len(s.chunks) && s.outstanding < scanWindow && s.buffered() < 4096 {
		ext := s.chunks[s.next]
		if !s.h.SubmitAt(cycle, dram.Request{Addr: ext.Addr, Words: ext.Words, To: s, Tag: int32(s.next)}) {
			break
		}
		s.next++
		s.outstanding++
	}
	// Emit one vector per cycle from buffered words. The staged vector is
	// filled in place; consumed words advance bufHead and the buffer is
	// compacted so its capacity is reused instead of reallocated.
	if s.buffered() >= s.recWords && s.out.CanPush() {
		v := s.out.StageVec(cycle)
		for s.buffered() >= s.recWords && v.Count() < record.NumLanes {
			var r record.Rec
			for i := 0; i < s.recWords; i++ {
				r = r.Append(s.buf[s.bufHead+i])
			}
			s.bufHead += s.recWords
			v.Push(r)
		}
	}
	if s.bufHead == len(s.buf) {
		s.buf, s.bufHead = s.buf[:0], 0
	} else if s.bufHead >= 4096 {
		s.buf, s.bufHead = s.buf[:copy(s.buf, s.buf[s.bufHead:])], 0
	}
	if !s.eos && s.next == len(s.chunks) && s.outstanding == 0 && s.buffered() < s.recWords && s.out.CanPush() {
		// Trailing words smaller than a record are padding; drop them.
		s.buf, s.bufHead = s.buf[:0], 0
		s.out.PushEOS(cycle)
		s.eos = true
	}
}

// Complete implements dram.Completer for chunk seq tag. The chunk at the
// head of the stream appends straight to buf, followed by every held chunk
// it unblocks; a chunk that completes ahead of the head is copied into the
// reorder ring. buf and the ring buffers are compacted and reused, so both
// stop growing once they cover the window.
func (s *DRAMScan) Complete(tag int32, data []uint32) {
	s.outstanding-- // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	if off := int(tag) - s.appendNext; off > 0 {
		if off >= len(s.held) {
			s.growHeld(off + 1)
		}
		c := &s.held[(s.heldHead+off)%len(s.held)]
		c.data = append(c.data[:0], data...) // lint:hotalloc-ok warmup growth, each ring buffer is reused once it covers a chunk
		c.ok = true
		return
	}
	s.buf = append(s.buf, data...) // lint:hotalloc-ok warmup growth, buf compacted and reused at steady state; lint:wakeprop-ok fires inside the HBM partner's tick
	for {
		s.appendNext++
		s.heldHead = (s.heldHead + 1) % len(s.held)
		c := &s.held[s.heldHead]
		if !c.ok {
			return
		}
		s.buf = append(s.buf, c.data...) // lint:hotalloc-ok warmup growth, buf compacted and reused at steady state; lint:wakeprop-ok fires inside the HBM partner's tick
		c.ok = false
	}
}

// growHeld widens the reorder ring to at least n entries, keeping each
// held chunk at its offset from the head.
//
// lint:hotalloc-ok — chunks complete at most a few DRAM latencies out of
// order, so the ring stops growing after the first such stretch.
func (s *DRAMScan) growHeld(n int) {
	held := make([]heldChunk, max(n, 2*len(s.held)))
	for i := range s.held {
		held[i] = s.held[(s.heldHead+i)%len(s.held)]
	}
	s.held, s.heldHead = held, 0
}

// DRAMAppend materializes a record stream densely into DRAM starting at
// Base: the append-only write path of sorted runs, join outputs, and spill
// buffers. Writes are buffered into burst-sized chunks so the traffic stays
// sequential.
type DRAMAppend struct {
	name     string
	h        *dram.HBM
	base     uint32
	recWords int
	in       *sim.Link

	written     uint32 // words flushed or buffered
	buf         []uint32
	outstanding int
	eosIn       bool
	eos         bool
	count       int
	schema      *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

// NewDRAMAppend builds an appending writer at base.
func NewDRAMAppend(g *Graph, name string, base uint32, recWords int, in *sim.Link) *DRAMAppend {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	a := &DRAMAppend{name: name, h: g.HBM, base: base, recWords: recWords, in: in}
	g.Add(a)
	return a
}

// Name implements sim.Component.
func (a *DRAMAppend) Name() string { return a.name }

// InputLinks implements sim.InputPorts.
func (a *DRAMAppend) InputLinks() []*sim.Link { return []*sim.Link{a.in} }

// Done implements sim.Component.
func (a *DRAMAppend) Done() bool { return a.eos }

// Complete implements dram.Completer: a posted write is acknowledged inside
// SubmitAt.
func (a *DRAMAppend) Complete(int32, []uint32) {
	a.outstanding-- // lint:wakeprop-ok fires inside SubmitAt, called from this node's own tick
}

// Count returns the records written.
func (a *DRAMAppend) Count() int { return a.count }

// Words returns the total words appended.
func (a *DRAMAppend) Words() uint32 { return a.written }

// Idle implements sim.Idler: mirrors Tick's accept/flush/EOS conditions.
func (a *DRAMAppend) Idle(int64) bool {
	if !a.eosIn && !a.in.Empty() && a.outstanding < 8 {
		return false
	}
	if len(a.buf) >= 256 || (a.eosIn && len(a.buf) > 0) {
		return false
	}
	if a.eosIn && !a.eos && a.outstanding == 0 {
		return false
	}
	return true
}

// SharedState implements sim.StateSharer: the HBM fires this node's
// completion callbacks.
func (a *DRAMAppend) SharedState() []any { return []any{a.h} }

// WakeHint implements sim.WakeHinter: no self-timed events — progress
// comes from link flits and HBM completions (shared-state partner).
func (a *DRAMAppend) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (a *DRAMAppend) Tick(cycle int64) {
	if !a.eosIn && !a.in.Empty() && a.outstanding < 8 {
		f := a.in.Peek()
		a.in.Drop()
		if f.EOS {
			a.eosIn = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if !f.Vec.Valid(i) {
					continue
				}
				r := f.Vec.Lane[i]
				for k := 0; k < a.recWords; k++ {
					// Staging buffer: compacted after each flush below, so
					// the capacity is reused at steady state.
					a.buf = append(a.buf, r.Get(k)) // lint:hotalloc-ok warmup growth, compacted and reused after flush
				}
				a.count++
			}
		}
	}
	// Flush in 1 KiB chunks (or whatever remains at EOS). SubmitAt
	// consumes write payloads synchronously, so chunks are sliced straight
	// out of the staging buffer — no copy — and the consumed prefix is
	// compacted afterwards so the buffer's capacity is reused.
	const chunk = 256
	head := 0
	for len(a.buf)-head >= chunk || (a.eosIn && len(a.buf)-head > 0) {
		n := len(a.buf) - head
		if n > chunk {
			n = chunk
		}
		if !a.h.SubmitAt(cycle, dram.Request{
			Addr: a.base + a.written, Words: n, Write: true, Data: a.buf[head : head+n], To: a,
		}) {
			break
		}
		a.outstanding++
		a.written += uint32(n)
		head += n
	}
	if head > 0 {
		a.buf = a.buf[:copy(a.buf, a.buf[head:])]
	}
	if a.eosIn && !a.eos && len(a.buf) == 0 && a.outstanding == 0 {
		a.eos = true
	}
}
