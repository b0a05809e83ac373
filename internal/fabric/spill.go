package fabric

import (
	"aurochs/internal/dram"
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// SpillQueue is an elastic thread queue: on-chip up to OnChipRecs records,
// spilling to a DRAM buffer beyond that (paper §IV-C: "To account for
// limited queue size in scratchpads, we spill search threads to a queue in
// DRAM"). Placing one on the recirculating path of a forking tree walk
// makes the loop deadlock-free — fork fan-out can exceed on-chip buffering
// without stalling the cycle.
//
// Functionally the records stay in host memory; the timing cost of a spill
// (a DRAM write on enqueue past the threshold, a DRAM read before those
// records become poppable again) is charged through real requests against
// the shared HBM, so spilling competes for bandwidth like everything else.
type SpillQueue struct {
	name     string
	h        *dram.HBM
	base     uint32
	recWords int
	onchip   int
	in       *sim.Link
	out      *sim.Link
	stat     *sim.Stats

	front   ring.Queue[record.Rec] // on-chip, ready to emit
	spilled []record.Rec           // resident in DRAM
	refill  int                    // records currently being fetched back
	wptr    uint32
	rptr    uint32
	eosIn   bool
	eos     bool
	// Spills counts records that took the DRAM round trip.
	Spills int64

	// queueWords is what the HBM's channel queues hold when empty:
	// Channels×QueueDepth bursts of burstWords words. A request starting
	// o words into a burst is accepted only if it spans at most
	// queueWords-o words.
	queueWords, burstWords int

	scratch []record.Rec // reused staging for one input vector's records
	wdata   []uint32     // reused write payload (consumed synchronously by SubmitAt)
	// batch holds the records of the refill in flight (there is at most
	// one); its backing array is reused by every refill.
	batch []record.Rec

	refillCnt, spillCnt *sim.Counter
}

// NewSpillQueue builds a spill queue. base is the DRAM word address of the
// spill ring; onChipRecs the scratchpad-backed capacity.
func NewSpillQueue(g *Graph, name string, base uint32, recWords, onChipRecs int, in, out *sim.Link) *SpillQueue {
	if g.HBM == nil {
		g.defectf(DiagNoHBM, "node %q accesses DRAM but the graph has no HBM attached (call AttachHBM first)", name)
	}
	s := &SpillQueue{
		name: name, h: g.HBM, base: base, recWords: recWords,
		onchip: onChipRecs, in: in, out: out, stat: g.Stats(),
	}
	if g.HBM != nil {
		c := g.HBM.Config()
		s.queueWords, s.burstWords = c.Channels*c.QueueDepth*c.BurstWords, c.BurstWords
	}
	s.refillCnt = s.stat.Counter(name + ".refills")
	s.spillCnt = s.stat.Counter(name + ".spilled")
	g.Add(s)
	return s
}

// Name implements sim.Component.
func (s *SpillQueue) Name() string { return s.name }

// InputLinks implements sim.InputPorts.
func (s *SpillQueue) InputLinks() []*sim.Link { return []*sim.Link{s.in} }

// OutputLinks implements sim.OutputPorts.
func (s *SpillQueue) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component: a spill queue sits on cyclic paths and
// never sees EOS; it is done when empty.
func (s *SpillQueue) Done() bool {
	return s.front.Len() == 0 && len(s.spilled) == 0 && s.refill == 0
}

// Idle implements sim.Idler: nothing on chip, nothing spilled that could
// start a refill, and no poppable input.
func (s *SpillQueue) Idle(int64) bool {
	if s.front.Len() > 0 {
		return false
	}
	if len(s.spilled) > 0 && s.refill == 0 {
		return false
	}
	if !s.eosIn && !s.in.Empty() {
		return false
	}
	return true
}

// SharedState implements sim.StateSharer: spills and refills are real HBM
// requests whose completions fire from the HBM's tick.
func (s *SpillQueue) SharedState() []any { return []any{s.h} }

// WakeHint implements sim.WakeHinter: no self-timed events — progress
// comes from link flits and HBM completions (shared-state partner).
func (s *SpillQueue) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *SpillQueue) Tick(cycle int64) {
	// Emit one vector from the on-chip segment.
	if s.front.Len() > 0 && s.out.CanPush() {
		n := s.front.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := s.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			*v.PushRef() = *s.front.Front()
			s.front.Drop()
		}
	}
	// Refill from DRAM when the on-chip segment runs low.
	if s.front.Len() < s.onchip/2 && len(s.spilled) > 0 && s.refill == 0 {
		addr := s.base + s.rptr%spillRingWords
		// A refill's bursts must fit an empty set of channel queues, or
		// SubmitAt refuses it forever.
		fit := (s.queueWords - int(addr)%s.burstWords) / s.recWords
		n := min(len(s.spilled), 64, max(fit, 1))
		// The batch is copied out because s.spilled is resliced as soon as
		// the submit lands.
		s.batch = append(s.batch[:0], s.spilled[:n]...) // lint:hotalloc-ok reused refill buffer, grows only until it covers a 64-record batch
		words := n * s.recWords
		ok := s.h.SubmitAt(cycle, dram.Request{Addr: addr, Words: words, To: s})
		if ok {
			s.refill = n
			s.spilled = s.spilled[n:]
			s.rptr += uint32(words)
			s.refillCnt.Add(1)
		}
	}
	// Accept input: into the on-chip segment if it fits and nothing is
	// spilled ahead of it (FIFO), otherwise spill to DRAM.
	if !s.eosIn && !s.in.Empty() {
		f := s.in.Peek()
		s.in.Drop()
		if f.EOS {
			s.eosIn = true
			return
		}
		recs := f.Vec.AppendRecords(s.scratch[:0])
		s.scratch = recs[:0]
		if len(s.spilled) == 0 && s.refill == 0 && s.front.Len()+len(recs) <= s.onchip {
			for _, r := range recs {
				*s.front.PushRef() = r
			}
			return
		}
		words := len(recs) * s.recWords
		// Cap-guarded scratch: allocated only while the largest vector seen
		// is still growing, then reused verbatim.
		if cap(s.wdata) < words {
			s.wdata = make([]uint32, 0, words) // lint:hotalloc-ok cap-guarded scratch, allocates until the widest vector is covered
		}
		data := s.wdata[:0]
		for _, r := range recs {
			for i := 0; i < s.recWords; i++ {
				if i < r.Len() {
					data = append(data, r.Get(i)) // lint:hotalloc-ok writes into cap-guarded scratch, cannot grow
				} else {
					data = append(data, 0) // pad to the configured slot width; lint:hotalloc-ok writes into cap-guarded scratch, cannot grow
				}
			}
		}
		if s.h.SubmitAt(cycle, dram.Request{Addr: s.base + s.wptr%spillRingWords, Words: words, Write: true, Data: data}) {
			s.wptr += uint32(words)
		}
		// Even if the write was backpressured, keep the records: the
		// traffic accounting is best-effort under saturation.
		// Spilling is the explicit overflow path: the backlog growing past
		// the on-chip segment is the event being modeled.
		s.spilled = append(s.spilled, recs...) // lint:hotalloc-ok spill backlog growth is the modeled overflow event
		s.Spills += int64(len(recs))
		s.spillCnt.Add(int64(len(recs)))
	}
}

// Complete implements dram.Completer: the refill in flight has arrived,
// and its records join the on-chip segment.
func (s *SpillQueue) Complete(int32, []uint32) {
	for i := range s.batch {
		*s.front.PushRef() = s.batch[i] // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
	}
	s.refill = 0 // lint:wakeprop-ok fires inside the HBM partner's tick; partner-tick wake re-checks Idle
}

// spillRingWords bounds the DRAM footprint of a spill ring; addresses wrap.
const spillRingWords = 1 << 22
