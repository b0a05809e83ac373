package fabric

import (
	"aurochs/internal/record"
	"aurochs/internal/ring"
	"aurochs/internal/sim"
)

// KeyFn extracts a sort key from a record. Multi-word keys pack into the
// uint64 (Gorgon serializes wide keys across pipeline stages; the
// comparison outcome is the same).
type KeyFn func(record.Rec) uint64

// OrderedMerge merges R sorted input streams into one sorted output at up
// to a vector per cycle — Gorgon's high-radix merge element, which Aurochs
// inherits for its sort and LSM kernels (paper §IV-B). An input with no
// buffered records that has not signalled EOS stalls the merge (its next
// record could be the global minimum).
type OrderedMerge struct {
	name string
	ins  []*sim.Link
	out  *sim.Link
	key  KeyFn

	bufs []ring.Queue[record.Rec]
	eosv []bool
	eos  bool
}

// NewOrderedMerge builds an R-way merge over sorted inputs.
func NewOrderedMerge(name string, key KeyFn, ins []*sim.Link, out *sim.Link) *OrderedMerge {
	if len(ins) < 2 {
		panic("fabric: ordered merge needs at least two inputs")
	}
	return &OrderedMerge{
		name: name, ins: ins, out: out, key: key,
		bufs: make([]ring.Queue[record.Rec], len(ins)),
		eosv: make([]bool, len(ins)),
	}
}

// Name implements sim.Component.
func (m *OrderedMerge) Name() string { return m.name }

// InputLinks implements sim.InputPorts.
func (m *OrderedMerge) InputLinks() []*sim.Link { return m.ins }

// OutputLinks implements sim.OutputPorts.
func (m *OrderedMerge) OutputLinks() []*sim.Link { return []*sim.Link{m.out} }

// Done implements sim.Component.
func (m *OrderedMerge) Done() bool { return m.eos }

// Idle implements sim.Idler: no refill possible, and either the output is
// blocked or a live input with an empty buffer stalls the merge.
func (m *OrderedMerge) Idle(int64) bool {
	for i, in := range m.ins {
		if !m.eosv[i] && m.bufs[i].Len() < record.NumLanes && !in.Empty() {
			return false
		}
	}
	if m.eos || !m.out.CanPush() {
		return true
	}
	for i := range m.ins {
		if m.bufs[i].Len() == 0 && !m.eosv[i] {
			return true // cannot prove the minimum; the link is also empty
		}
	}
	return false // can emit records or the final EOS
}

// WakeHint implements sim.WakeHinter: the merge is purely link-driven.
func (m *OrderedMerge) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (m *OrderedMerge) Tick(cycle int64) {
	// Refill: pull one vector per starved input.
	for i, in := range m.ins {
		if m.eosv[i] || m.bufs[i].Len() >= record.NumLanes || in.Empty() {
			continue
		}
		f := in.Peek()
		in.Drop()
		if f.EOS {
			m.eosv[i] = true
		} else {
			for k := 0; k < record.NumLanes; k++ {
				if f.Vec.Mask&(1<<uint(k)) != 0 {
					*m.bufs[i].PushRef() = f.Vec.Lane[k]
				}
			}
		}
	}
	// Emit: up to one dense vector of globally smallest records. Stall if
	// any live input is empty (cannot prove the minimum). The output flit
	// is staged lazily, only once the first record is proven emittable.
	if !m.out.CanPush() {
		return
	}
	var v *record.Vector
	for v == nil || v.Count() < record.NumLanes {
		best := -1
		var bestKey uint64
		stalled := false
		for i := range m.ins {
			if m.bufs[i].Len() == 0 {
				if !m.eosv[i] {
					stalled = true
					break
				}
				continue
			}
			k := m.key(*m.bufs[i].Front())
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if stalled || best < 0 {
			break
		}
		if v == nil {
			v = m.out.StageVec(cycle)
		}
		v.Push(m.bufs[best].Pop())
	}
	if v != nil {
		return
	}
	// EOS when every input has ended and drained.
	if !m.eos {
		for i := range m.ins {
			if !m.eosv[i] || m.bufs[i].Len() > 0 {
				return
			}
		}
		m.out.PushEOS(cycle)
		m.eos = true
	}
}

// MergeJoin joins two sorted record streams on equal keys, emitting one
// output record per matching pair via the combiner — the linear-time merge
// phase of a sort-merge join. Duplicate key groups produce their full cross
// product; the build-side group is buffered on chip.
type MergeJoin struct {
	name    string
	a, b    *sim.Link
	out     *sim.Link
	keyA    KeyFn
	keyB    KeyFn
	combine func(a, b record.Rec) record.Rec

	bufA, bufB ring.Queue[record.Rec]
	eosA, eosB bool

	groupA    []record.Rec // reused across groups; reset to length zero
	groupKey  uint64
	groupOpen bool // collecting the current A group
	pending   ring.Queue[record.Rec]
	eos       bool
	matches   int64
}

// NewMergeJoin builds the merge-join element.
func NewMergeJoin(name string, keyA, keyB KeyFn, combine func(a, b record.Rec) record.Rec, a, b, out *sim.Link) *MergeJoin {
	return &MergeJoin{name: name, a: a, b: b, out: out, keyA: keyA, keyB: keyB, combine: combine}
}

// Name implements sim.Component.
func (j *MergeJoin) Name() string { return j.name }

// InputLinks implements sim.InputPorts.
func (j *MergeJoin) InputLinks() []*sim.Link { return []*sim.Link{j.a, j.b} }

// OutputLinks implements sim.OutputPorts.
func (j *MergeJoin) OutputLinks() []*sim.Link { return []*sim.Link{j.out} }

// Done implements sim.Component.
func (j *MergeJoin) Done() bool { return j.eos }

// Matches returns the pairs emitted so far.
func (j *MergeJoin) Matches() int64 { return j.matches }

// Idle implements sim.Idler: conservative — false whenever any buffered
// work, poppable input, or terminal transition could advance the join.
func (j *MergeJoin) Idle(int64) bool {
	if j.pending.Len() > 0 {
		return false
	}
	if !j.eosA && j.bufA.Len() < 2*record.NumLanes && !j.a.Empty() {
		return false
	}
	if !j.eosB && j.bufB.Len() < 2*record.NumLanes && !j.b.Empty() {
		return false
	}
	if j.bufA.Len() > 0 || j.bufB.Len() > 0 {
		return false
	}
	if j.eosA && (j.groupOpen || len(j.groupA) > 0) {
		return false
	}
	if j.eosA && j.eosB && !j.eos {
		return false
	}
	return true
}

// WakeHint implements sim.WakeHinter: the join is purely link-driven.
func (j *MergeJoin) WakeHint(int64) int64 { return sim.WakeNever }

// Tick implements sim.Component.
func (j *MergeJoin) Tick(cycle int64) {
	j.refill()
	for work := 0; work < record.NumLanes && j.pending.Len() < 4*record.NumLanes; work++ {
		if !j.step() {
			break
		}
	}
	j.emit(cycle)
}

func (j *MergeJoin) refill() {
	if !j.eosA && j.bufA.Len() < 2*record.NumLanes && !j.a.Empty() {
		f := j.a.Peek()
		j.a.Drop()
		if f.EOS {
			j.eosA = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					*j.bufA.PushRef() = f.Vec.Lane[i]
				}
			}
		}
	}
	if !j.eosB && j.bufB.Len() < 2*record.NumLanes && !j.b.Empty() {
		f := j.b.Peek()
		j.b.Drop()
		if f.EOS {
			j.eosB = true
		} else {
			for i := 0; i < record.NumLanes; i++ {
				if f.Vec.Mask&(1<<uint(i)) != 0 {
					*j.bufB.PushRef() = f.Vec.Lane[i]
				}
			}
		}
	}
}

// step advances the join by one unit of work; false means stalled (waiting
// on input) or finished.
func (j *MergeJoin) step() bool {
	// Phase 1: complete the current A group.
	if j.groupOpen || len(j.groupA) == 0 {
		if j.bufA.Len() == 0 {
			if !j.eosA {
				return false // group may continue in the next vector
			}
			if j.groupOpen {
				j.groupOpen = false // EOS closes the group
			} else if len(j.groupA) == 0 {
				// A exhausted entirely: discard the rest of B.
				if j.bufB.Len() > 0 {
					j.bufB.Drop()
					return true
				}
				return false
			}
		} else {
			ka := j.keyA(*j.bufA.Front())
			if !j.groupOpen && len(j.groupA) == 0 {
				j.groupKey, j.groupOpen = ka, true
			}
			if j.groupOpen {
				if ka == j.groupKey {
					// Reset to groupA[:0] when the group closes, so the
					// backing array grows to the largest group then reuses.
					j.groupA = append(j.groupA, j.bufA.Pop()) // lint:hotalloc-ok grows to the largest join group, then reuses
					return true
				}
				j.groupOpen = false // next key reached: group complete
			}
		}
	}
	// Phase 2: consume B against the completed group.
	if j.bufB.Len() == 0 {
		if j.eosB {
			// Nothing left to match: drop the group and drain A.
			j.groupA = j.groupA[:0]
			if j.bufA.Len() > 0 {
				j.bufA.Drop()
				return true
			}
			return false
		}
		return false
	}
	kb := j.keyB(*j.bufB.Front())
	switch {
	case kb < j.groupKey:
		j.bufB.Drop()
	case kb == j.groupKey:
		b := j.bufB.Pop()
		for _, a := range j.groupA {
			*j.pending.PushRef() = j.combine(a, b)
			j.matches++
		}
	default: // kb > groupKey: this group is spent
		j.groupA = j.groupA[:0]
	}
	return true
}

func (j *MergeJoin) emit(cycle int64) {
	if j.pending.Len() > 0 && j.out.CanPush() {
		n := j.pending.Len()
		if n > record.NumLanes {
			n = record.NumLanes
		}
		v := j.out.StageVec(cycle)
		for i := 0; i < n; i++ {
			v.Push(j.pending.Pop())
		}
		return
	}
	if !j.eos && j.eosA && j.eosB && j.bufA.Len() == 0 && j.bufB.Len() == 0 &&
		j.pending.Len() == 0 && j.out.CanPush() {
		j.eos = true
		j.out.PushEOS(cycle)
	}
}
