package fabric

import (
	"math/bits"
	"slices"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// Source feeds a record stream into the fabric at one dense vector per
// cycle, then signals end-of-stream. The records come from a caller's
// slice or, for streams too large to be worth materializing, from a
// generator called once per record.
type Source struct {
	name   string
	out    *sim.Link
	recs   []record.Rec
	gen    func(i int) record.Rec
	n      int // records in the stream
	pos    int
	eos    bool
	schema *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

// NewSource builds a source that streams recs, NumLanes records per
// vector, straight from the caller's slice: nothing is copied up front, so
// the caller must not modify recs until the run ends.
func NewSource(name string, recs []record.Rec, out *sim.Link) *Source {
	return &Source{name: name, out: out, recs: recs, n: len(recs)}
}

// NewSourceFunc builds a source that streams the n records gen(0) …
// gen(n-1), NumLanes per vector, calling gen as each vector is staged, so
// the stream is never materialized.
func NewSourceFunc(name string, n int, gen func(i int) record.Rec, out *sim.Link) *Source {
	return &Source{name: name, out: out, gen: gen, n: n}
}

// Name implements sim.Component.
func (s *Source) Name() string { return s.name }

// OutputLinks implements sim.OutputPorts.
func (s *Source) OutputLinks() []*sim.Link { return []*sim.Link{s.out} }

// Done implements sim.Component.
func (s *Source) Done() bool { return s.eos }

// Idle implements sim.Idler: nothing to do once drained or backpressured.
func (s *Source) Idle(int64) bool { return s.eos || !s.out.CanPush() }

// WakeHint implements sim.WakeHinter: a source only waits on link credit.
func (s *Source) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *Source) Tick(cycle int64) {
	if s.eos || !s.out.CanPush() {
		return
	}
	if s.pos < s.n {
		// StageVec hands out the ring slot, and the records are copied
		// straight into its lanes.
		v := s.out.StageVec(cycle)
		n := min(record.NumLanes, s.n-s.pos)
		if s.gen == nil {
			copy(v.Lane[:], s.recs[s.pos:s.pos+n])
		} else {
			for i := range n {
				v.Lane[i] = s.gen(s.pos + i)
			}
		}
		v.Mask = uint16(1<<uint(n) - 1)
		s.pos += n
		return
	}
	s.out.PushEOS(cycle)
	s.eos = true
}

// Sink collects a stream's records and observes its end.
type Sink struct {
	name    string
	in      *sim.Link
	recs    []record.Rec
	discard bool
	dropped int // records a discarding sink counted without keeping
	eos     bool
	schema  *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

// NewSink builds a sink on the given link.
func NewSink(name string, in *sim.Link) *Sink {
	return &Sink{name: name, in: in}
}

// Name implements sim.Component.
func (s *Sink) Name() string { return s.name }

// InputLinks implements sim.InputPorts.
func (s *Sink) InputLinks() []*sim.Link { return []*sim.Link{s.in} }

// Done implements sim.Component.
func (s *Sink) Done() bool { return s.eos }

// Idle implements sim.Idler: nothing to do without input.
func (s *Sink) Idle(int64) bool { return s.eos || s.in.Empty() }

// WakeHint implements sim.WakeHinter: a sink only waits on link arrivals.
func (s *Sink) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (s *Sink) Tick(cycle int64) {
	for !s.in.Empty() {
		f := s.in.Peek()
		s.in.Drop()
		if f.EOS {
			s.eos = true
			return
		}
		if s.discard {
			s.dropped += f.Vec.Count()
			continue
		}
		s.recs = f.Vec.AppendRecords(s.recs)
	}
}

// Discard makes the sink count the records it receives without keeping
// them, for a kernel that needs only the completion count. It returns the
// sink for call chaining.
func (s *Sink) Discard() *Sink {
	s.discard = true
	return s
}

// Reserve makes room for n more records, so a sink whose record count is
// known up front collects them without growing its output by doubling.
// Records beyond n are still collected.
func (s *Sink) Reserve(n int) *Sink {
	s.recs = slices.Grow(s.recs, n)
	return s
}

// Records returns everything collected so far: nothing for a discarding
// sink.
func (s *Sink) Records() []record.Rec { return s.recs }

// Count returns the number of records received, kept or discarded.
func (s *Sink) Count() int { return len(s.recs) + s.dropped }

// Map is a compute tile statically configured with a per-record function:
// one vector per cycle through a PipelineDepth-stage datapath. The function
// mutates the record in place — it is handed a pointer into the tile's own
// pipeline buffer, so no per-record copy crosses the call. The function
// may hold state (e.g. the ingress counter that stamps hash-table node
// slots) because one node models one physical pipeline through which
// records pass in a definite order.
type Map struct {
	name string
	in   *sim.Link
	out  *sim.Link
	fn   func(*record.Rec)

	pipe     ring.Queue[timedVec]
	eosIn    bool
	eos      bool
	cyclic   bool
	inSchema *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
	outSchem *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

type timedVec struct {
	v     record.Vector
	ready int64
}

// NewMap builds a map tile applying fn, in place, to every record.
func NewMap(name string, fn func(*record.Rec), in, out *sim.Link) *Map {
	return &Map{name: name, fn: fn, in: in, out: out}
}

// Cyclic marks the node as living on a recirculating path that never
// carries an end-of-stream token (paper §III-A): the node is done whenever
// it is empty, because the enclosing LoopCtl proves the loop has drained.
// It returns the node for call chaining.
func (m *Map) Cyclic() *Map {
	m.cyclic = true
	return m
}

// Name implements sim.Component.
func (m *Map) Name() string { return m.name }

// InputLinks implements sim.InputPorts.
func (m *Map) InputLinks() []*sim.Link { return []*sim.Link{m.in} }

// OutputLinks implements sim.OutputPorts.
func (m *Map) OutputLinks() []*sim.Link { return []*sim.Link{m.out} }

// Done implements sim.Component.
func (m *Map) Done() bool {
	if m.cyclic {
		return m.pipe.Len() == 0
	}
	return m.eos
}

// Idle implements sim.Idler: mirrors Tick's three actions — drain a
// matured head, accept input, forward EOS — returning true only when none
// can fire this cycle.
func (m *Map) Idle(cycle int64) bool {
	if m.pipe.Len() > 0 && m.pipe.Front().ready <= cycle && m.out.CanPush() {
		return false
	}
	if !m.eosIn && !m.in.Empty() && m.pipe.Len() < PipelineDepth+2 {
		return false
	}
	if m.eosIn && !m.eos && m.pipe.Len() == 0 && m.out.CanPush() {
		return false
	}
	return true
}

// WakeHint implements sim.WakeHinter: the datapath's only self-timed
// event is the head vector maturing out of the pipeline.
func (m *Map) WakeHint(int64) int64 {
	if m.pipe.Len() > 0 {
		return m.pipe.Front().ready
	}
	return sim.WakeNever
}

// WorstCaseInternalLatency implements sim.LatencyBound: a vector can sit
// in the datapath for the pipeline depth without link activity.
func (m *Map) WorstCaseInternalLatency() int64 { return PipelineDepth }

// Tick implements sim.Component.
func (m *Map) Tick(cycle int64) {
	// Drain pipeline head.
	if m.pipe.Len() > 0 && m.pipe.Front().ready <= cycle && m.out.CanPush() {
		copyVec(m.out.StageVec(cycle), &m.pipe.Front().v)
		m.pipe.Drop()
	}
	// Accept one vector per cycle.
	if !m.eosIn && !m.in.Empty() && m.pipe.Len() < PipelineDepth+2 {
		f := m.in.Peek()
		m.in.Drop()
		if f.EOS {
			m.eosIn = true
		} else {
			slot := m.pipe.PushRefDirty()
			slot.ready = cycle + PipelineDepth
			slot.v.Reset()
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Valid(i) {
					r := slot.v.PushRef()
					*r = f.Vec.Lane[i]
					m.fn(r)
				}
			}
		}
	}
	// Forward EOS once drained.
	if m.eosIn && !m.eos && m.pipe.Len() == 0 && m.out.CanPush() {
		m.out.PushEOS(cycle)
		m.eos = true
	}
}

// copyVec copies only the valid lanes of src into dst, leaving invalid
// lanes dirty — no reader consults a lane outside the mask, and on the
// sparse streams filters re-pack, lane-wise copying moves a fraction of the
// full 16-lane vector.
func copyVec(dst, src *record.Vector) {
	m := src.Mask
	dst.Mask = m // lint:phaseconf-ok dst is the caller's staged flit on a link the ticking component produces into (Link.StageVec), owned by the claiming worker until commit
	if m == (1<<record.NumLanes)-1 {
		dst.Lane = src.Lane // lint:phaseconf-ok dst is the caller's staged flit on a link the ticking component produces into, owned by the claiming worker until commit
		return
	}
	for m != 0 {
		i := bits.TrailingZeros16(m)
		m &= m - 1
		dst.Lane[i] = src.Lane[i] // lint:phaseconf-ok dst is the caller's staged flit on a link the ticking component produces into, owned by the claiming worker until commit
	}
}
