package record

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is one SIMD beat through a 16-lane tile: up to NumLanes records
// plus a valid mask. Thread compaction (paper §III-A, fig. 5c) produces
// dense vectors — all valid lanes packed low — which is the form every tile
// in this simulator emits.
//
// Its methods take pointers (String excepted): a Vector is ~840 bytes, and
// a value receiver copies all of it on every lane test through a *Vector.
type Vector struct {
	Lane [NumLanes]Rec
	Mask uint16
}

// Count returns the number of valid lanes.
func (v *Vector) Count() int { return bits.OnesCount16(v.Mask) }

// Valid reports whether lane i holds a live record.
func (v *Vector) Valid(i int) bool { return v.Mask&(1<<uint(i)) != 0 }

// Dense reports whether all valid lanes are packed at the low end.
func (v *Vector) Dense() bool {
	n := v.Count()
	return v.Mask == uint16(1<<uint(n))-1
}

// Push appends a record to the next free low lane of a dense vector and
// reports whether the vector is now full. It panics on a full vector.
func (v *Vector) Push(r Rec) bool {
	n := v.Count()
	if n >= NumLanes {
		panic("record: push to full vector")
	}
	v.Lane[n] = r
	v.Mask |= 1 << uint(n)
	return n+1 == NumLanes
}

// PushRef claims the next free low lane of a dense vector and returns a
// pointer to it, so callers move records with a single copy instead of
// passing them through Push's stack argument. It panics on a full vector.
func (v *Vector) PushRef() *Rec {
	n := v.Count()
	if n >= NumLanes {
		panic("record: push to full vector")
	}
	v.Mask |= 1 << uint(n)
	return &v.Lane[n]
}

// Compact returns a dense copy of v: valid lanes shuffled low, mask packed.
// This is the functional effect of the shuffle network + barrel shifter in
// the compute tile's compaction datapath.
func (v *Vector) Compact() Vector {
	var out Vector
	for i := 0; i < NumLanes; i++ {
		if v.Valid(i) {
			out.Push(v.Lane[i])
		}
	}
	return out
}

// Reset clears the vector for reuse: the mask is zeroed, so stale lane
// contents are unobservable through Valid/Records/Flatten. This is the
// in-place counterpart of assigning Vector{} without the 840-byte copy,
// used by the zero-allocation staging paths (sim.Link.StageVec, pools).
func (v *Vector) Reset() { v.Mask = 0 }

// Records returns the valid records in lane order.
func (v *Vector) Records() []Rec {
	out := make([]Rec, 0, v.Count())
	for i := 0; i < NumLanes; i++ {
		if v.Valid(i) {
			out = append(out, v.Lane[i])
		}
	}
	return out
}

// AppendRecords appends the valid records to dst in lane order and returns
// the extended slice. Unlike Records it allocates only when dst lacks
// capacity, so steady-state consumers (sinks, merges, DRAM backlogs) that
// recycle their accumulators run allocation-free.
func (v *Vector) AppendRecords(dst []Rec) []Rec {
	for i := 0; i < NumLanes; i++ {
		if v.Valid(i) {
			dst = append(dst, v.Lane[i])
		}
	}
	return dst
}

// String renders the vector for debugging.
func (v Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vec{mask=%016b", v.Mask)
	for i := 0; i < NumLanes; i++ {
		if v.Valid(i) {
			fmt.Fprintf(&b, " %d:%s", i, v.Lane[i])
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Vectorize packs a record slice into dense vectors, NumLanes per vector.
func Vectorize(recs []Rec) []Vector {
	out := make([]Vector, 0, (len(recs)+NumLanes-1)/NumLanes)
	var cur Vector
	for _, r := range recs {
		if cur.Push(r) {
			out = append(out, cur)
			cur = Vector{}
		}
	}
	if cur.Count() > 0 {
		out = append(out, cur)
	}
	return out
}

// Flatten concatenates the valid records of a vector slice.
func Flatten(vecs []Vector) []Rec {
	n := 0
	for i := range vecs {
		n += vecs[i].Count()
	}
	out := make([]Rec, 0, n)
	for i := range vecs {
		out = vecs[i].AppendRecords(out)
	}
	return out
}
