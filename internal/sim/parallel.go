package sim

import (
	"runtime"
	"sync/atomic"
)

// Parallel tick kernel. Registered links make tick order unobservable
// (package doc), so components may tick concurrently within a cycle — with
// two provisos the planner (shard.go) enforces statically, before the first
// cycle:
//
//  1. Components touching shared state outside links (one scratchpad Mem
//     behind several tiles, the HBM behind every DRAM node, a LoopCtl
//     behind a loop's members) must stay on one worker, in registration
//     order, so their interleaving matches the serial kernel exactly.
//     Components declare this state via StateSharer; the planner unions
//     components over the declared keys.
//  2. A link's endpoints mutate the link from both sides (producer pushes,
//     consumer pops — disjoint fields, safe concurrently), but two
//     producers or two consumers of the same link would race, so the
//     planner unions same-side endpoints. Components without port
//     interfaces are unioned into one conservative group.
//
// The resulting atoms, ordered (stage, lane), are the shards of the
// work-stealing scheduler (steal.go). Each cycle: the coordinator rotates
// the wake sets (wake.go), enqueues only the shards holding woken
// components onto the per-worker deques, and broadcasts the cycle number.
// A worker drains its deque — walking each claimed shard's members in
// ascending index order, examining only those whose wake bit is set — and
// then steals half of a victim's remaining shards when it runs dry. Because
// a shard is a whole shared-state atom, every same-cycle partner wake is an
// intra-shard event, handled by the claiming worker exactly as the serial
// drain would — the wake discipline never crosses a shard mid-cycle. Wake
// bitmap words are shared between shards, so workers touch them with atomic
// ops; the coordinator's serial phases (set rotation, shard distribution,
// timer registration, link commit) are ordered against the workers by the
// channel barrier. The barrier waits for all workers, then link commit runs
// serially. Because commit is the only place credits return and arrivals
// surface, the barrier placement — after all ticks, before commit — is what
// preserves the synchronous-clock semantics.
type workerPool struct {
	sys   *System
	sched *scheduler
	queue *shardQueue
	start []chan int64
	done  chan struct{}

	noSkip bool

	// Per-worker outboxes, written by the claiming workers before they
	// signal done and read by the coordinator after the barrier: components
	// that went to sleep this cycle (with their wake hints) and the net
	// change to the not-Done census. Merging is order-insensitive (timer
	// wheel buckets, an integer sum), so it does not matter which worker
	// processed which shard.
	out []workerOutbox

	// Per-worker steal buffers (claimed shard ids), preallocated.
	stealBufs [][]int32
}

// workerOutbox collects one worker's order-insensitive per-cycle results.
type workerOutbox struct {
	sleeps  []timerEnt
	doneDel int
}

// newWorkerPool builds the shard queue from the two-level plan, sizes the
// deques, and starts the worker goroutines.
func newWorkerPool(s *System, sched *scheduler, plan *ShardPlan, workers int, noSkip bool) *workerPool {
	if workers > len(plan.Shards) {
		workers = len(plan.Shards)
	}
	p := &workerPool{
		sys:    s,
		sched:  sched,
		queue:  newShardQueue(plan, workers),
		done:   make(chan struct{}, workers),
		noSkip: noSkip,
		out:    make([]workerOutbox, workers),
	}
	for w := 0; w < workers; w++ {
		p.stealBufs = append(p.stealBufs, make([]int32, (len(plan.Shards)+1)/2))
		ch := make(chan int64)
		p.start = append(p.start, ch)
		go p.worker(w, ch)
	}
	return p
}

// workers reports the pool's goroutine count.
func (p *workerPool) workers() int { return len(p.start) }

// worker is one scheduler participant: drain own deque, then steal.
func (p *workerPool) worker(w int, start <-chan int64) {
	for cycle := range start {
		ob := &p.out[w]
		ob.sleeps = ob.sleeps[:0]
		ob.doneDel = 0
		p.drain(w, cycle, ob)
		p.done <- struct{}{}
	}
}

// drain processes shards until no deque holds unclaimed work: first the
// worker's own deque, then steal-half sweeps over the other deques in ring
// order. Exiting is safe the moment a full sweep finds every deque empty:
// the coordinator never enqueues mid-cycle, and a shard claimed by another
// worker is that worker's to finish before it signals the barrier.
func (p *workerPool) drain(w int, cycle int64, ob *workerOutbox) {
	q := p.queue
	own := &q.deques[w]
	for {
		s, ok := own.claimOne()
		if !ok {
			break
		}
		p.runShard(q.shards[s], cycle, ob)
	}
	nw := len(q.deques)
	for {
		stole := false
		for k := 1; k < nw; k++ {
			got := q.deques[(w+k)%nw].stealHalf(p.stealBufs[w])
			if len(got) == 0 {
				continue
			}
			stole = true
			for _, s := range got {
				p.runShard(q.shards[s], cycle, ob)
			}
		}
		if !stole {
			return
		}
	}
}

// runShard is one shard tick-batch: an ascending walk over the shard's
// members, examining those with a set wake bit, reproducing the serial
// drain's decisions (idle→sleep, else tick + re-arm + partner wakes).
func (p *workerPool) runShard(shard []int, cycle int64, ob *workerOutbox) {
	s := p.sys
	sc := p.sched
	for _, i := range shard {
		word, mask := &sc.awake[i>>6], uint64(1)<<uint(i&63)
		if atomic.LoadUint64(word)&mask == 0 {
			continue
		}
		atomic.AndUint64(word, ^mask)
		idler := s.idlers[i]
		if !p.noSkip && idler != nil && idler.Idle(cycle) {
			if !sc.poll.get(i) {
				if hint := sc.hinters[i].WakeHint(cycle); hint != WakeNever {
					// lint:phaseconf-ok ob aliases p.out[w], private to this worker until the barrier; the coordinator merges outboxes only after all workers signal done
					ob.sleeps = append(ob.sleeps, timerEnt{comp: int32(i), at: hint})
				}
			}
			continue
		}
		s.comps[i].Tick(cycle)
		dw := &sc.doneBits[i>>6]
		if d := s.comps[i].Done(); d != (atomic.LoadUint64(dw)&mask != 0) {
			if d {
				atomic.OrUint64(dw, mask)
				ob.doneDel-- // lint:phaseconf-ok per-worker outbox delta, summed by the coordinator after the barrier
			} else {
				atomic.AndUint64(dw, ^mask)
				ob.doneDel++ // lint:phaseconf-ok per-worker outbox delta, summed by the coordinator after the barrier
			}
		}
		// Partners share an atom — and therefore a shard — with i by
		// construction, so a same-cycle (ahead-of-cursor) wake stays inside
		// this very walk. The masks' words are shared with other shards'
		// components, hence the atomic ORs.
		if m := sc.wakeAhead[i]; m != nil {
			for wi, wv := range m {
				if wv != 0 {
					atomic.OrUint64(&sc.awake[wi], wv)
				}
			}
		}
		if m := sc.wakeBehind[i]; m != nil {
			for wi, wv := range m {
				if wv != 0 {
					atomic.OrUint64(&sc.next[wi], wv)
				}
			}
		}
		atomic.OrUint64(&sc.next[i>>6], mask)
	}
}

// stop terminates the worker goroutines.
func (p *workerPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}

// stepParallel advances one cycle on the worker pool: distribute woken
// shards, broadcast, barrier, timer/census merge, serial link commit.
// Progress detection is identical to the serial kernel's — commit's
// collected per-cycle activity flags. hot:path — this is the parallel
// kernel's per-cycle loop. phase:coordinator — runs strictly between the
// worker barriers, so its plain reads of the wake bitmaps are ordered.
func (sc *scheduler) stepParallel(cycle int64, p *workerPool) bool {
	if p.queue.distribute(sc.awake) > 0 {
		for _, ch := range p.start {
			ch <- cycle
		}
		for range p.start {
			<-p.done
		}
		for w := range p.out {
			for _, e := range p.out[w].sleeps {
				if e.at <= cycle {
					sc.next.set(int(e.comp))
				} else {
					sc.wheel.schedule(cycle, e.comp, e.at)
				}
			}
			sc.notDone += p.out[w].doneDel
		}
	}
	return sc.commitLinks(cycle)
}

// KernelDecision records how one RunWith resolved its tick kernel: the
// requested worker count, what it resolved to, why auto mode fell back (if
// it did), and the shard-plan shape the decision was made on. The bench
// harness serializes this verbatim so every fallback verdict in a BENCH
// report is explained rather than silent.
type KernelDecision struct {
	// Requested is the worker request after environment resolution
	// (negative = auto mode with that cap).
	Requested int `json:"requested"`
	// Resolved is the worker count actually used (1 = serial kernel).
	Resolved int `json:"resolved"`
	// Fallback names the auto-mode fallback reason, empty when the parallel
	// kernel engaged (or was never requested).
	Fallback string `json:"fallback,omitempty"`
	// GOMAXPROCS is the host parallelism the decision saw.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Shard-plan shape: component census, shard (atom) count, pipeline
	// stages, widest stage's lane count, and the largest shard's population
	// and share of all components.
	Components   int     `json:"components"`
	Shards       int     `json:"shards"`
	Stages       int     `json:"stages"`
	MaxLanes     int     `json:"max_lanes"`
	LargestShard int     `json:"largest_shard"`
	LargestShare float64 `json:"largest_share"`
}

// Auto-mode fallback reason codes (KernelDecision.Fallback).
const (
	// FallbackNone: the parallel kernel engaged.
	FallbackNone = ""
	// FallbackRequestedSerial: the caller asked for 0/1 workers outright.
	FallbackRequestedSerial = "requested-serial"
	// FallbackAutoCap: auto mode's own cap was below 2 workers.
	FallbackAutoCap = "auto-cap"
	// FallbackSingleCoreHost: GOMAXPROCS < 2 — no host parallelism to win.
	FallbackSingleCoreHost = "single-core-host"
	// FallbackSmallCensus: too few components to amortize the per-cycle
	// barrier no matter how they shard.
	FallbackSmallCensus = "small-census"
	// FallbackSingleShard: the plan produced one shard — everything is one
	// correctness atom, which must run serially anyway.
	FallbackSingleShard = "single-shard"
	// FallbackImbalance: one shard holds most of the components; the other
	// workers would idle at the barrier while it runs serially (work
	// stealing balances across shards, never inside one).
	FallbackImbalance = "imbalance"
)

// autoWorkers resolves RunOptions.Workers auto mode (negative values): use
// up to max workers, but fall back to the serial kernel when the barrier
// cannot pay for itself. The decision is a pure function of the topology
// and GOMAXPROCS — never of simulation results — and both kernels are
// bit-identical anyway, so the fallback is unobservable in outputs. The
// reason is never discarded: it is returned alongside the worker count and
// recorded by RunWith in the System's KernelDecision and Stats.
func (s *System) autoWorkers(max int, plan *ShardPlan) (int, string) {
	if max < 2 {
		return 1, FallbackAutoCap
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return 1, FallbackSingleCoreHost
	}
	// Census threshold: a graph this small cannot amortize a per-cycle
	// barrier no matter how it shards.
	if len(s.comps) < 8 {
		return 1, FallbackSmallCensus
	}
	if len(plan.Shards) < 2 {
		return 1, FallbackSingleShard
	}
	// Balance threshold: when one shard holds most of the components the
	// other workers idle at the barrier while it runs serially anyway
	// (hash-aggregate's 0.99x regression was this shape). Work stealing
	// balances the rest of the load, so the only disqualifying shape is a
	// single dominant atom.
	if plan.Largest*4 > len(s.comps)*3 {
		return 1, FallbackImbalance
	}
	workers := max
	if workers > len(plan.Shards) {
		workers = len(plan.Shards)
	}
	return workers, FallbackNone
}

// unionFind is a plain disjoint-set with the deterministic convention that
// the smaller root index wins, so group identities are stable.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
}
