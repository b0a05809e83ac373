package fabric

import (
	"fmt"

	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// LoopCtl coordinates end-of-stream across a cyclic pipeline. It is the
// simulator's equivalent of the paper's drain-token protocol (§III-A): a
// tile with cyclic dataflow first lets the cycle empty, then signals stream
// end on the non-cyclic path. The control tracks threads alive inside the
// loop; stream end enters the loop body only when the external input has
// ended and no thread remains in flight.
type LoopCtl struct {
	inflight int64
	extEOS   bool
	// limit, when non-zero, is the admission bound: the loop entry stops
	// pulling external records once inflight+incoming would exceed it. A
	// recirculating pipeline deadlocks when its live thread population
	// reaches the loop's total token capacity (every link slot full, every
	// component blocked on the next); bounding admission strictly below
	// that capacity makes the classic ring-saturation wedge unreachable.
	// Recirculating traffic is never gated — it must keep draining.
	limit int64
}

// NewLoopCtl returns a fresh loop control.
func NewLoopCtl() *LoopCtl { return &LoopCtl{} }

// Limit sets the admission bound (0 = unbounded) and returns the control
// for chaining. Kernels with long recirculation (chain walks, retry loops)
// set it below the loop's token capacity; see CanAdmit.
func (c *LoopCtl) Limit(n int64) *LoopCtl {
	c.limit = n
	return c
}

// CanAdmit reports whether n more threads may enter the loop without
// exceeding the admission bound.
func (c *LoopCtl) CanAdmit(n int) bool {
	return c.limit == 0 || c.inflight+int64(n) <= c.limit
}

// Enter records a thread entering the loop from outside.
func (c *LoopCtl) Enter() { c.inflight++ }

// Exit records a thread leaving the loop (through an exit branch or a kill).
func (c *LoopCtl) Exit() {
	c.inflight--
	if c.inflight < 0 {
		panic("fabric: loop inflight underflow — an exit was counted twice")
	}
}

// Spawn records n additional threads created inside the loop (fork).
func (c *LoopCtl) Spawn(n int) { c.inflight += int64(n) }

// Inflight returns the live thread count.
func (c *LoopCtl) Inflight() int64 { return c.inflight }

// Output is one downstream port of a Filter.
type Output struct {
	// Link carries records routed to this output; nil drops them
	// (thread kill).
	Link *sim.Link
	// Exit marks an output that leaves the enclosing loop; routing a
	// record here (or dropping via a nil Link on an Exit output) counts
	// a LoopCtl exit.
	Exit bool
	// NoEOS suppresses end-of-stream on this output — set on the cyclic
	// (recirculating) path, which by the drain protocol never carries a
	// stream-end token out of the filter.
	NoEOS bool
}

// Filter is the branch-to-dataflow compute tile: a predicate routes each
// record to one of several outputs, and a compaction datapath (shuffle
// network + barrel shifter, fig. 5c) packs survivors into dense vectors on
// every output so downstream lanes stay full.
type Filter struct {
	name  string
	in    *sim.Link
	route func(*record.Rec) int
	outs  []Output
	ctl   *LoopCtl

	pipe       ring.Queue[timedVec]
	acc        []ring.Queue[record.Rec]
	lastAppend []int64
	eosIn      bool
	eos        []bool
	cyclic     bool
	inSchema   *record.Schema   // lint:sharedstate-ok — schemas are immutable after construction
	outSchemas []*record.Schema // parallel to outs (incl. nil-link slots); lint:sharedstate-ok — immutable
}

// NewFilter builds a filter. route returns the output index for each
// record, or -1 to kill the thread; the record is passed by pointer to
// avoid a copy per lane, and route may mutate it in place (the mutated
// record is what lands on the chosen output). ctl may be nil outside loops.
func NewFilter(name string, route func(*record.Rec) int, in *sim.Link, outs []Output, ctl *LoopCtl) *Filter {
	if len(outs) == 0 {
		panic("fabric: filter needs at least one output")
	}
	return &Filter{
		name:       name,
		in:         in,
		route:      route,
		outs:       outs,
		ctl:        ctl,
		acc:        make([]ring.Queue[record.Rec], len(outs)),
		lastAppend: make([]int64, len(outs)),
		eos:        make([]bool, len(outs)),
	}
}

// Cyclic marks the filter as living on a recirculating path that never
// carries end-of-stream; it is done whenever empty.
func (f *Filter) Cyclic() *Filter {
	f.cyclic = true
	return f
}

// Name implements sim.Component.
func (f *Filter) Name() string { return f.name }

// InputLinks implements sim.InputPorts.
func (f *Filter) InputLinks() []*sim.Link { return []*sim.Link{f.in} }

// OutputLinks implements sim.OutputPorts. Nil output links are legitimate
// thread kills, not wiring bugs, so they are omitted.
func (f *Filter) OutputLinks() []*sim.Link {
	var out []*sim.Link
	for _, o := range f.outs {
		if o.Link != nil {
			out = append(out, o.Link)
		}
	}
	return out
}

// Done implements sim.Component.
func (f *Filter) Done() bool {
	if f.cyclic {
		if f.pipe.Len() > 0 {
			return false
		}
		for i := range f.acc {
			if f.acc[i].Len() > 0 {
				return false
			}
		}
		return true
	}
	if !f.eosIn || f.pipe.Len() > 0 {
		return false
	}
	for i, o := range f.outs {
		if o.Link == nil || o.NoEOS {
			continue
		}
		if !f.eos[i] {
			return false
		}
	}
	for i := range f.acc {
		if f.acc[i].Len() > 0 {
			return false
		}
	}
	return true
}

// Idle implements sim.Idler: the filter can act only when a matured vector
// waits in the pipe, an accumulator holds records, input is available, or
// an EOS still needs forwarding.
func (f *Filter) Idle(cycle int64) bool {
	if f.pipe.Len() > 0 && f.pipe.Front().ready <= cycle {
		return false
	}
	for i := range f.acc {
		if f.acc[i].Len() > 0 {
			return false
		}
	}
	if !f.eosIn && !f.in.Empty() {
		return false
	}
	if f.eosIn && f.pipe.Len() == 0 {
		for i, o := range f.outs {
			if o.Link != nil && !o.NoEOS && !f.eos[i] {
				return false
			}
		}
	}
	return true
}

// WakeHint implements sim.WakeHinter: the filter's only self-timed event
// is the oldest pipelined vector maturing; everything else it reacts to
// arrives over its links.
func (f *Filter) WakeHint(int64) int64 {
	if f.pipe.Len() > 0 {
		return f.pipe.Front().ready
	}
	return sim.WakeNever
}

// SharedState implements sim.StateSharer: filters inside a loop mutate the
// loop's in-flight count.
func (f *Filter) SharedState() []any {
	if f.ctl == nil {
		return nil
	}
	return []any{f.ctl}
}

// WorstCaseInternalLatency implements sim.LatencyBound: records can wait
// out the pipeline plus the compaction-buffer flush timeout.
func (f *Filter) WorstCaseInternalLatency() int64 { return PipelineDepth + flushAge }

// Tick implements sim.Component.
func (f *Filter) Tick(cycle int64) {
	accepted := f.drainPipe(cycle)
	f.emit(cycle, accepted)
	f.accept(cycle)
	f.forwardEOS(cycle)
}

// accept pulls one input vector into the 6-stage pipe.
func (f *Filter) accept(cycle int64) {
	if f.eosIn || f.in.Empty() || f.pipe.Len() >= PipelineDepth+2 {
		return
	}
	for i := range f.acc {
		if f.acc[i].Len() >= 3*record.NumLanes {
			return // compaction buffers saturated; backpressure
		}
	}
	fl := f.in.Peek()
	f.in.Drop()
	if fl.EOS {
		f.eosIn = true
		return
	}
	tv := f.pipe.PushRefDirty()
	copyVec(&tv.v, &fl.Vec)
	tv.ready = cycle + PipelineDepth
}

// drainPipe routes one matured vector into the per-output accumulators and
// reports whether new records arrived this cycle.
func (f *Filter) drainPipe(cycle int64) bool {
	if f.pipe.Len() == 0 || f.pipe.Front().ready > cycle {
		return false
	}
	touched := f.lastAppend
	v := &f.pipe.Front().v
	if v.Mask == (1<<record.NumLanes)-1 {
		// Dense vector: route every lane first, then distribute. When all
		// lanes pick the same pushable output whose accumulator is empty,
		// the records are copied straight into the staged output vector —
		// exactly what this cycle's emit would do after buffering them
		// (16 appended to an empty accumulator ⇒ a full vector released
		// this cycle), minus one 52-byte copy per record.
		var ois [record.NumLanes]int
		oi0 := f.route(&v.Lane[0])
		same := oi0 >= 0 && oi0 < len(f.outs) && f.outs[oi0].Link != nil
		ois[0] = oi0
		for i := 1; i < record.NumLanes; i++ {
			ois[i] = f.route(&v.Lane[i])
			if ois[i] != oi0 {
				same = false
			}
		}
		if same && f.acc[oi0].Len() == 0 && f.outs[oi0].Link.CanPush() {
			out := f.outs[oi0].Link.StageVec(cycle)
			for i := 0; i < record.NumLanes; i++ {
				*out.PushRef() = v.Lane[i]
			}
			touched[oi0] = cycle
			if f.ctl != nil && f.outs[oi0].Exit {
				for k := 0; k < record.NumLanes; k++ {
					f.ctl.Exit()
				}
			}
			f.pipe.Drop()
			return true
		}
		for i := 0; i < record.NumLanes; i++ {
			f.sortLane(cycle, &v.Lane[i], ois[i])
		}
		f.pipe.Drop()
		return true
	}
	for i := 0; i < record.NumLanes; i++ {
		if !v.Valid(i) {
			continue
		}
		r := &v.Lane[i]
		f.sortLane(cycle, r, f.route(r))
	}
	f.pipe.Drop()
	return true
}

// sortLane lands one routed record in its output accumulator, counting loop
// exits for kills and nil-link exit outputs.
func (f *Filter) sortLane(cycle int64, r *record.Rec, oi int) {
	if oi < 0 {
		// Thread kill: in a loop this is an exit.
		if f.ctl != nil {
			f.ctl.Exit()
		}
		return
	}
	if oi >= len(f.outs) {
		panic(fmt.Sprintf("%s: route returned %d with %d outputs", f.name, oi, len(f.outs)))
	}
	if f.outs[oi].Link == nil {
		if f.ctl != nil && f.outs[oi].Exit {
			f.ctl.Exit()
		}
		return
	}
	*f.acc[oi].PushRefDirty() = *r
	f.lastAppend[oi] = cycle
}

// flushAge bounds how long a partial vector may sit in a compaction buffer
// while the input stays busy. Without it, a rarely-taken branch (e.g. the
// block-allocation path of fig. 7b) could starve behind a line-rate stream
// on the common path; the hardware's barrel-shifter accumulator drains on
// the same kind of timeout.
const flushAge = 4

// emit pushes at most one vector per output per cycle: full vectors
// eagerly; partial vectors when the input went idle, the stream is ending,
// or the oldest resident record has waited flushAge cycles.
func (f *Filter) emit(cycle int64, gotInput bool) {
	for i, o := range f.outs {
		if o.Link == nil || f.acc[i].Len() == 0 || !o.Link.CanPush() {
			continue
		}
		if f.acc[i].Len() < record.NumLanes && gotInput && !f.eosIn && cycle-f.lastAppend[i] < flushAge {
			continue
		}
		n := f.acc[i].Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := o.Link.StageVec(cycle)
		for k := 0; k < n; k++ {
			*v.PushRef() = *f.acc[i].Front()
			f.acc[i].Drop()
		}
		if f.ctl != nil && o.Exit {
			for k := 0; k < n; k++ {
				f.ctl.Exit()
			}
		}
	}
}

// forwardEOS signals stream end on non-cyclic outputs once drained.
func (f *Filter) forwardEOS(cycle int64) {
	if !f.eosIn || f.pipe.Len() > 0 {
		return
	}
	for i := range f.acc {
		if f.acc[i].Len() > 0 {
			return
		}
	}
	for i, o := range f.outs {
		if o.Link == nil || o.NoEOS || f.eos[i] {
			continue
		}
		if o.Link.CanPush() {
			o.Link.PushEOS(cycle)
			f.eos[i] = true
		}
	}
}

// Merge combines two record streams into one, giving strict priority to the
// first input — on a cyclic path the recirculating stream must win to avoid
// deadlock (paper §III-A). Records from both inputs are re-packed into
// dense vectors.
type Merge struct {
	name string
	pri  *sim.Link
	sec  *sim.Link
	out  *sim.Link
	ctl  *LoopCtl // non-nil: this is a loop-entry merge; sec is external

	acc       ring.Queue[record.Rec]
	priEOS    bool
	secEOS    bool
	eos       bool
	cyclic    bool
	priSchema *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
	secSchema *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
	outSchem  *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

// NewMerge builds a plain merge: priority input pri, secondary sec.
func NewMerge(name string, pri, sec, out *sim.Link) *Merge {
	return &Merge{name: name, pri: pri, sec: sec, out: out}
}

// NewLoopMerge builds the entry merge of a cyclic pipeline: recirc is the
// cyclic path (priority), ext the external input. Records popped from ext
// are counted into ctl; end-of-stream enters the loop body only when ext
// has ended and the loop has drained.
func NewLoopMerge(name string, recirc, ext, out *sim.Link, ctl *LoopCtl) *Merge {
	if ctl == nil {
		panic("fabric: loop merge requires a LoopCtl")
	}
	return &Merge{name: name, pri: recirc, sec: ext, out: out, ctl: ctl}
}

// Cyclic marks the merge as living on a recirculating path; it is done
// whenever its accumulator is empty.
func (m *Merge) Cyclic() *Merge {
	m.cyclic = true
	return m
}

// Name implements sim.Component.
func (m *Merge) Name() string { return m.name }

// InputLinks implements sim.InputPorts.
func (m *Merge) InputLinks() []*sim.Link { return []*sim.Link{m.pri, m.sec} }

// OutputLinks implements sim.OutputPorts.
func (m *Merge) OutputLinks() []*sim.Link { return []*sim.Link{m.out} }

// loopEntry reports whether this merge coordinates a cyclic pipeline's
// drain protocol (built via NewLoopMerge). Graph.Check requires one on
// every cycle.
func (m *Merge) loopEntry() bool { return m.ctl != nil }

// Done implements sim.Component.
func (m *Merge) Done() bool {
	if m.cyclic {
		return m.acc.Len() == 0
	}
	return m.eos
}

// Idle implements sim.Idler. A loop-entry merge may also fire its EOS
// decision off the loop's in-flight count and its recirculating input's
// drain state; both are covered by SharedState, so the owning worker may
// read them here.
func (m *Merge) Idle(int64) bool {
	if m.acc.Len() > 0 {
		return false
	}
	if !m.priEOS && !m.pri.Empty() {
		return false
	}
	if !m.secEOS && !m.sec.Empty() {
		return false
	}
	if !m.eos {
		if m.ctl != nil {
			if m.secEOS && m.ctl.Inflight() == 0 && m.pri.Drained() {
				return false
			}
		} else if m.priEOS && m.secEOS {
			return false
		}
	}
	return true
}

// SharedState implements sim.StateSharer: a loop-entry merge counts
// entering threads into the loop control and reads the recirculating
// link's producer-side drain state, so it must share a worker with the
// loop's members and with that link's producer.
func (m *Merge) SharedState() []any {
	if m.ctl == nil {
		return nil
	}
	return []any{m.ctl, m.pri}
}

// WakeHint implements sim.WakeHinter: a merge has no self-timed events —
// everything it reacts to is link activity or loop-control state owned by
// shared-state partners.
func (m *Merge) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (m *Merge) Tick(cycle int64) {
	// Pull at most one vector from each input, priority first.
	if m.acc.Len() < record.NumLanes && !m.priEOS && !m.pri.Empty() {
		f := m.pri.Peek()
		m.pri.Drop()
		if f.EOS {
			m.priEOS = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					*m.acc.PushRefDirty() = f.Vec.Lane[i]
				}
			}
		}
	}
	if m.acc.Len() < record.NumLanes && !m.secEOS && !m.sec.Empty() {
		f := m.sec.Peek()
		switch {
		case f.EOS:
			m.sec.Drop()
			m.secEOS = true
		case m.ctl != nil && !m.ctl.CanAdmit(f.Vec.Count()):
			// Admission bound reached: hold the external vector on its
			// link until exits free loop slots. The recirculating path
			// above is never gated, so the loop keeps draining and
			// inflight monotonically falls until admission reopens.
		default:
			m.sec.Drop()
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					if m.ctl != nil {
						m.ctl.Enter()
					}
					*m.acc.PushRefDirty() = f.Vec.Lane[i]
				}
			}
		}
	}
	// Emit one dense vector.
	if m.acc.Len() > 0 && m.out.CanPush() {
		n := m.acc.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := m.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			*v.PushRef() = *m.acc.Front()
			m.acc.Drop()
		}
	}
	m.maybeEOS(cycle)
}

func (m *Merge) maybeEOS(cycle int64) {
	if m.eos || m.acc.Len() > 0 || !m.out.CanPush() {
		return
	}
	if m.ctl != nil {
		// Loop entry: the cyclic path never carries EOS; drain is proven
		// by the in-flight count.
		if m.secEOS && m.ctl.Inflight() == 0 && m.pri.Drained() {
			m.out.PushEOS(cycle)
			m.eos = true
		}
		return
	}
	if m.priEOS && m.secEOS {
		m.out.PushEOS(cycle)
		m.eos = true
	}
}

// Fork spawns child threads from each parent record — the primitive that
// lets a search walk multiple paths through a tree simultaneously. The
// expansion function appends the children (possibly none, killing the
// parent) to a buffer the fork owns and reuses. Inside a loop, the net
// thread-count change is reported to ctl.
type Fork struct {
	name string
	in   *sim.Link
	out  *sim.Link
	fn   func(r record.Rec, out []record.Rec) []record.Rec
	ctl  *LoopCtl
	kids []record.Rec // reused child buffer fn appends into

	buf      ring.Queue[timedRec]
	eosIn    bool
	eos      bool
	cyclic   bool
	inSchema *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
	outSchem *record.Schema // lint:sharedstate-ok — schemas are immutable after construction
}

type timedRec struct {
	r     record.Rec
	ready int64
}

// NewFork builds a fork tile. fn appends r's children to out and returns
// it; out is empty on entry and is the fork's to reuse once fn returns.
// ctl may be nil outside loops.
func NewFork(name string, fn func(r record.Rec, out []record.Rec) []record.Rec, in, out *sim.Link, ctl *LoopCtl) *Fork {
	return &Fork{name: name, fn: fn, in: in, out: out, ctl: ctl}
}

// Cyclic marks the fork as living on a recirculating path; it is done
// whenever its expansion buffer is empty.
func (f *Fork) Cyclic() *Fork {
	f.cyclic = true
	return f
}

// Name implements sim.Component.
func (f *Fork) Name() string { return f.name }

// InputLinks implements sim.InputPorts.
func (f *Fork) InputLinks() []*sim.Link { return []*sim.Link{f.in} }

// OutputLinks implements sim.OutputPorts.
func (f *Fork) OutputLinks() []*sim.Link { return []*sim.Link{f.out} }

// Done implements sim.Component.
func (f *Fork) Done() bool {
	if f.cyclic {
		return f.buf.Len() == 0
	}
	return f.eos
}

// Idle implements sim.Idler: mirrors Tick's emit/accept/EOS conditions.
func (f *Fork) Idle(cycle int64) bool {
	if f.buf.Len() > 0 && f.buf.Front().ready <= cycle && f.out.CanPush() {
		return false
	}
	if !f.eosIn && !f.in.Empty() && f.buf.Len() < 4*record.NumLanes {
		return false
	}
	if f.eosIn && !f.eos && f.buf.Len() == 0 && f.out.CanPush() {
		return false
	}
	return true
}

// WakeHint implements sim.WakeHinter: the fork's only self-timed event is
// its oldest expanded child maturing out of the pipeline.
func (f *Fork) WakeHint(int64) int64 {
	if f.buf.Len() > 0 {
		return f.buf.Front().ready
	}
	return sim.WakeNever
}

// SharedState implements sim.StateSharer: forks inside a loop mutate the
// loop's in-flight count.
func (f *Fork) SharedState() []any {
	if f.ctl == nil {
		return nil
	}
	return []any{f.ctl}
}

// WorstCaseInternalLatency implements sim.LatencyBound: children mature
// after the pipeline depth.
func (f *Fork) WorstCaseInternalLatency() int64 { return PipelineDepth }

// Tick implements sim.Component.
func (f *Fork) Tick(cycle int64) {
	// Emit up to one dense vector of matured children.
	if f.buf.Len() > 0 && f.buf.Front().ready <= cycle && f.out.CanPush() {
		v := f.out.StageVec(cycle)
		n := 0
		for f.buf.Len() > 0 && n < record.NumLanes && f.buf.Front().ready <= cycle {
			*v.PushRef() = f.buf.Front().r
			f.buf.Drop()
			n++
		}
	}
	// Accept one parent vector when the expansion buffer has room.
	if !f.eosIn && !f.in.Empty() && f.buf.Len() < 4*record.NumLanes {
		fl := f.in.Peek()
		f.in.Drop()
		if fl.EOS {
			f.eosIn = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if !fl.Vec.Valid(i) {
					continue
				}
				f.fork(&fl.Vec.Lane[i], cycle)
			}
		}
	}
	if f.eosIn && !f.eos && f.buf.Len() == 0 && f.out.CanPush() {
		f.out.PushEOS(cycle)
		f.eos = true
	}
}

// fork expands one parent into the expansion buffer; its children mature
// after the pipeline depth.
func (f *Fork) fork(r *record.Rec, cycle int64) {
	f.kids = f.fn(*r, f.kids[:0])
	if f.ctl != nil {
		f.ctl.Spawn(len(f.kids) - 1)
	}
	for i := range f.kids {
		*f.buf.PushRef() = timedRec{r: f.kids[i], ready: cycle + PipelineDepth}
	}
}
