package sim

import "aurochs/internal/record"

// Flit is one beat on a link: either a vector of records or the
// end-of-stream pulse that a tile sends downstream once all of its upstream
// producers have signalled stream end (paper §III-A).
type Flit struct {
	Vec record.Vector
	EOS bool
}

// Link is a registered, latency-annotated FIFO between two components.
//
// Semantics:
//   - Push in cycle N is visible to Pop no earlier than cycle N+latency.
//   - Flow control is credit-based: the producer holds one credit per slot
//     of consumer-side space that is guaranteed to exist when the flit
//     arrives. A push consumes a credit; a pop frees a slot, but the credit
//     returns to the producer only at the end-of-cycle commit (the credit
//     wire is registered too). Entries in flight within the latency window
//     therefore hold a credit even though they occupy pipeline registers,
//     not buffer slots — the skid buffer must have room for every flit the
//     producer has launched.
//   - CanPush is a pure function of state committed at the end of the
//     previous cycle: pops performed earlier in the same cycle cannot make
//     it flip from false to true, so tick order stays unobservable.
//
// Storage is a fixed ring of capacity slots held as two parallel arrays:
// buf carries the flits, ready the cycle at which each staged flit may
// become visible. Because every launched flit holds a credit whether it is
// still in flight or already buffered, visible + in-flight occupancy can
// never exceed capacity — so one ring holds both segments (visible entries
// first, in-flight entries behind them) and commit "moves" an arrival by
// advancing a boundary counter instead of copying the ~840-byte flit
// between slices. The split layout keeps commit's arrival scan
// cache-friendly: maturity stamps live in a dense int64 array the promote
// loop walks without striding over flit payloads.
type Link struct {
	name    string
	cap     int
	latency int

	// Ring indices are split by owner so the parallel kernel can tick both
	// endpoints concurrently: the consumer advances head/nVis (Drop), the
	// producer advances tail/nFly (stage), and commit — which runs at the
	// end-of-cycle barrier — is the only place that reads both sides.
	// tail always equals (head+nVis+nFly) mod capacity: Drop moves a slot
	// from the visible run to free space by head++/nVis--, leaving the sum
	// unchanged, so the producer never needs the consumer's counters.
	buf   []Flit
	ready []int64 // parallel to buf: first cycle the staged flit may become visible
	head  int     // consumer-owned: ring index of the oldest visible flit
	nVis  int     // consumer-decremented, commit-incremented: visible flits
	nFly  int     // producer-owned: flits pushed but not yet arrived
	tail  int     // producer-owned: ring index of the next free slot

	credits int // producer-side: pushes permitted before the next commit

	pushes int64
	pops   int64

	// pushedNow/poppedNow record per-cycle activity; commit collects and
	// clears them so the runner detects progress without sweeping counters.
	// The producer writes only pushedNow and the consumer only poppedNow,
	// which is what lets the parallel kernel tick both endpoints of a link
	// concurrently.
	pushedNow bool
	poppedNow bool

	// Scheduler bookkeeping (see wake.go). id is the index in System.links
	// (-1 for links built outside a System); wasDrained caches the drain
	// state as of the last commit so the runner maintains its O(1)
	// termination counter incrementally.
	id         int
	wasDrained bool // phase:commit — cached drain state, updated only by commitLinks

	// sched, when non-nil, receives a markLink on every mutation so the
	// serial kernel commits only dirty links instead of sweeping the census.
	// RunWith wires it for serial runs only: parallel workers mutating links
	// concurrently would race on the shared dirty list, so the parallel
	// kernel leaves it nil and commits by sweep.
	sched *scheduler
}

// touch reports a mutation to the serial kernel's dirty-link tracker.
func (l *Link) touch() {
	if s := l.sched; s != nil {
		s.markLink(l)
	}
}

func newLink(name string, capacity, latency int) *Link {
	// Invalid capacities/latencies are not rejected here: the fabric's
	// static verifier (fabric.Graph.Check) reports them with a diagnostic
	// before any simulation runs, which beats a construction-time panic
	// when a whole graph is being assembled.
	credits := capacity
	if credits < 0 {
		credits = 0
	}
	return &Link{name: name, cap: capacity, latency: latency,
		credits: credits, buf: make([]Flit, credits), ready: make([]int64, credits),
		id: -1, wasDrained: true}
}

// Name returns the link's identifier.
func (l *Link) Name() string { return l.name }

// Capacity returns the skid-buffer depth.
func (l *Link) Capacity() int { return l.cap }

// Latency returns the link latency in cycles.
func (l *Link) Latency() int { return l.latency }

// CanPush reports whether the producer holds a credit this cycle. Credits
// are recomputed only at commit, so the answer cannot change mid-cycle.
func (l *Link) CanPush() bool {
	return l.credits > 0
}

// stage claims the next free ring slot for a push at cycle, consuming one
// credit and stamping the arrival time. Occupancy (nVis+nFly) can never
// reach capacity while a credit remains, so the claimed slot is free.
func (l *Link) stage(cycle int64) *Flit {
	if l.credits <= 0 {
		panic("sim: push to full link " + l.name)
	}
	l.touch()
	l.credits--
	i := l.tail
	l.tail++
	if l.tail >= len(l.buf) {
		l.tail = 0
	}
	l.ready[i] = cycle + int64(l.latency)
	l.nFly++
	l.pushes++
	l.pushedNow = true
	return &l.buf[i]
}

// Push stages a flit for delivery after the link latency, consuming one
// credit. The caller must check CanPush first; pushing without a credit is
// a modelling bug and panics.
func (l *Link) Push(cycle int64, f Flit) {
	*l.stage(cycle) = f
}

// StageVec is the zero-copy form of Push for data flits: it consumes a
// credit and returns a pointer to the staged flit's (cleared) vector so the
// producer builds lanes directly in the ring instead of copying a whole
// vector through Push. The pointer is valid only until the producer's tick
// returns. The caller must check CanPush first.
func (l *Link) StageVec(cycle int64) *record.Vector {
	f := l.stage(cycle)
	f.EOS = false
	f.Vec.Reset()
	return &f.Vec
}

// PushEOS stages an end-of-stream pulse without copying a flit.
func (l *Link) PushEOS(cycle int64) {
	f := l.stage(cycle)
	f.EOS = true
	f.Vec.Reset()
}

// Empty reports whether the consumer has nothing to pop this cycle.
func (l *Link) Empty() bool { return l.nVis == 0 }

// Peek returns the head flit without consuming it. The pointer's contents
// stay stable until the end-of-cycle commit, even across a Pop/Drop in the
// same tick: the producer cannot stage into the slot because the freed
// credit is only returned at commit, and a full producer burst fills
// exactly the slots that were free at the previous commit. Consumers may
// therefore Drop early and keep reading the peeked flit for the rest of
// their tick. Panics if empty.
func (l *Link) Peek() *Flit {
	if l.nVis == 0 {
		panic("sim: peek on empty link " + l.name)
	}
	return &l.buf[l.head]
}

// Pop consumes and returns the head flit. Panics if empty. Consumers on the
// hot path that only inspect the flit should prefer Peek+Drop, which skips
// this copy.
func (l *Link) Pop() Flit {
	f := *l.Peek()
	l.Drop()
	return f
}

// Drop consumes the head flit without copying it out (the zero-copy
// counterpart of Pop, paired with Peek). Panics if empty.
func (l *Link) Drop() {
	if l.nVis == 0 {
		panic("sim: pop on empty link " + l.name)
	}
	l.touch()
	l.head++
	if l.head >= len(l.buf) {
		l.head = 0
	}
	l.nVis--
	l.pops++
	l.poppedNow = true
}

// Drained reports whether no flits remain anywhere in the link.
func (l *Link) Drained() bool { return l.nVis == 0 && l.nFly == 0 }

// Pushes returns the total flits ever pushed (for stats/deadlock detection).
func (l *Link) Pushes() int64 { return l.pushes }

// Pops returns the total flits ever popped.
func (l *Link) Pops() int64 { return l.pops }

// pending reports whether commit has any work this cycle: per-cycle
// activity to collect or in-flight entries that may arrive.
func (l *Link) pending() bool { return l.pushedNow || l.poppedNow || l.nFly > 0 }

// commit ends the link's cycle: arrived in-flight flits join the visible
// run (a boundary advance over the dense ready array, not a copy — whole
// spans promote in one scan), the producer's credits are recomputed from
// the space the consumer freed, and the per-cycle activity flags are
// collected. It returns the progress signal the deadlock detector consumes
// (a push or pop happened) and a wake signal for the event scheduler:
// whether anything observable about the link changed this cycle — traffic,
// an arrival, or a credit return — meaning the endpoints (and any
// component inspecting this link's state) must be re-examined.
func (l *Link) commit(cycle int64) (progress, wake bool) {
	arrivals := 0
	for l.nFly > 0 {
		i := l.head + l.nVis
		if i >= len(l.buf) {
			i -= len(l.buf)
		}
		// ready <= cycle+1: a flit pushed at cycle C with latency 1 is
		// visible at cycle C+1, i.e. after this commit.
		if l.ready[i] > cycle+1 {
			break
		}
		l.nVis++
		l.nFly--
		arrivals++
	}
	// Credit return: every buffer slot not occupied (and not promised to a
	// flit still in flight) is a credit for the producer's next cycle.
	credits := l.cap - l.nVis - l.nFly
	if credits < 0 {
		credits = 0
	}
	gained := credits > l.credits
	l.credits = credits
	progress = l.pushedNow || l.poppedNow
	wake = progress || arrivals > 0 || gained
	l.pushedNow = false
	l.poppedNow = false
	return progress, wake
}
