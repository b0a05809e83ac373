// Package sim is the cycle-level simulation kernel underneath the Aurochs
// fabric model. It provides a synchronous clock, registered links between
// components, and a runner with progress-based deadlock detection.
//
// The timing discipline is the one that makes cyclic dataflow graphs (the
// paper's recirculating while-loops) safe to simulate deterministically:
// every link is *registered* — a value pushed in cycle N becomes visible to
// the consumer in cycle N+1 at the earliest — so the order in which
// components tick within a cycle can never change the result. This mirrors
// the skid-buffered ready-valid streaming interface that loosely times
// Gorgon's tiles (paper §III-A). The same property licenses the parallel
// tick path (RunOptions.Workers): components that share no state outside
// links may tick concurrently within a cycle, with a barrier before link
// commit.
package sim

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
)

// Component is one clocked element of the fabric: a compute tile, a
// scratchpad pipeline, a DRAM channel group. Tick is called once per cycle
// with the current cycle number; components observe link state as committed
// at the end of the previous cycle and stage pushes for the next.
type Component interface {
	// Name identifies the component in stats and error messages.
	Name() string
	// Tick advances the component by one cycle.
	Tick(cycle int64)
	// Done reports whether the component has fully drained: it has seen
	// end-of-stream on all inputs, forwarded it, and holds no state that
	// could still produce output.
	Done() bool
}

// Idler is optionally implemented by components that can prove a Tick
// would be a no-op. Idle(cycle) must return true only when Tick(cycle)
// would neither mutate component state nor touch any link or shared
// resource — the runner then skips the call entirely. The answer must be a
// deterministic function of simulation state (never host time or
// randomness) so the serial and parallel kernels skip identically and runs
// stay bit-reproducible.
type Idler interface {
	Idle(cycle int64) bool
}

// StateSharer is optionally implemented by components that touch state
// outside their links: a shared scratchpad memory, the HBM, a loop
// controller. SharedState returns opaque keys (compared by identity);
// components returning a common key are scheduled onto the same worker by
// the parallel kernel and tick in registration order, which keeps their
// interleaving identical to the serial kernel. A *Link key additionally
// groups the component with that link's producers and consumers — for
// components that inspect link state beyond the Pop/Push contract (e.g. a
// loop-entry merge reading Drained on its recirculating input).
//
// A component with no ports (neither InputPorts nor OutputPorts) and no
// SharedState is conservatively scheduled into one common group: the
// kernel cannot prove it independent of anything.
type StateSharer interface {
	SharedState() []any
}

// LatencyBound is optionally implemented by components that can hide work
// from the links for many cycles (DRAM round trips are the canonical
// case). WorstCaseInternalLatency returns an upper bound, in cycles, on
// how long the component can go without producing link activity while
// still holding work. The runner sums these bounds into its deadlock grace
// window, replacing a hard-coded constant that deep memory queues could
// legally exceed.
type LatencyBound interface {
	WorstCaseInternalLatency() int64
}

// InputPorts is implemented by components that can report the links they
// pop from. Together with OutputPorts it lets the fabric's static verifier
// (fabric.Graph.Check) reconstruct the graph topology without instrumenting
// the simulation path, and lets the parallel kernel prove which components
// may tick concurrently. Every component shipped in this repository
// implements the interfaces; custom components wired into a fabric.Graph
// must too, or Check will report their links as unclaimed.
type InputPorts interface {
	// InputLinks returns the links the component consumes. Nil entries
	// are reported as wiring bugs.
	InputLinks() []*Link
}

// OutputPorts is the producer-side counterpart of InputPorts.
type OutputPorts interface {
	// OutputLinks returns the links the component pushes to. Nil entries
	// are reported as wiring bugs.
	OutputLinks() []*Link
}

// System owns the clock, components, and links of one simulation.
type System struct {
	comps  []Component
	idlers []Idler // parallel to comps; nil where not implemented
	links  []*Link
	cycle  int64
	stats  *Stats

	// effectiveWorkers records the worker count the last RunWith actually
	// used after auto-mode resolution (see RunOptions.Workers).
	effectiveWorkers int
	// lastKernel records the most recent RunWith's full kernel decision:
	// requested vs resolved workers, the fallback reason (if any), and the
	// shard-plan shape it was decided on.
	lastKernel KernelDecision
}

// NewSystem creates an empty simulation.
func NewSystem() *System {
	return &System{stats: NewStats()}
}

// Stats returns the system-wide counter set.
func (s *System) Stats() *Stats { return s.stats }

// Cycle returns the current cycle number.
func (s *System) Cycle() int64 { return s.cycle }

// Add registers a component. Components tick in registration order; because
// links are registered, the order is not observable in results.
func (s *System) Add(c Component) {
	s.comps = append(s.comps, c)
	idler, _ := c.(Idler)
	s.idlers = append(s.idlers, idler)
}

// Components returns the registered components in registration order.
func (s *System) Components() []Component { return s.comps }

// Links returns the registered links in creation order.
func (s *System) Links() []*Link { return s.links }

// NewLink creates and registers a link with the given capacity and latency.
// Capacity is the skid-buffer depth (entries buffered at the consumer);
// latency models interconnect hops and must be >= 1 (registered).
func (s *System) NewLink(name string, capacity, latency int) *Link {
	l := newLink(name, capacity, latency)
	s.links = append(s.links, l)
	return l
}

// DeadlockError reports a simulation that stopped making progress before
// all components drained.
type DeadlockError struct {
	Cycle int64
	Stuck []string // components not Done
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d; stuck components: %v", e.Cycle, e.Stuck)
}

// BudgetError reports a simulation that exhausted its cycle budget while
// components still held work — the runner's other failure mode, typed so
// harnesses can distinguish "too slow / budget too small" from a genuine
// deadlock.
type BudgetError struct {
	Budget int64
	Cycle  int64
	Stuck  []string // components not Done
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget %d exhausted at cycle %d; stuck components: %v", e.Budget, e.Cycle, e.Stuck)
}

// RunOptions selects the tick kernel.
type RunOptions struct {
	// Workers is the number of goroutines ticking components each cycle.
	// Values 0 and 1 select the serial kernel; values > 1 request that
	// many workers. Negative values select auto mode: up to -Workers
	// workers, falling back to the serial kernel when the topology cannot
	// profit — too few independent union-find shards, a component census
	// too small to amortize the per-cycle barrier, one shard dominating
	// the load, or a single-CPU host. Components sharing state (declared
	// via StateSharer or implied by shared links) stay on one worker, so
	// results are bit-identical to the serial kernel at any worker count;
	// the fallback only changes wall-clock time. EffectiveWorkers reports
	// what a run resolved to. When Workers is 0, the AUROCHS_WORKERS
	// environment variable (if set to a valid integer) supplies the value
	// instead — CI uses this to force the whole test suite through the
	// parallel kernel under the race detector.
	Workers int
	// NoIdleSkip disables per-component quiescence: every component ticks
	// every cycle, as the pre-quiescence kernel did. Results are identical
	// either way for components honouring the Idler contract; the knob
	// exists for A/B validation and debugging.
	NoIdleSkip bool
}

// envWorkers reads the AUROCHS_WORKERS environment override. It applies
// only when RunOptions.Workers is 0 (the caller expressed no preference),
// so CI can force every simulation in the test suite through the parallel
// kernel — under the race detector this turns the whole suite into a
// determinism stress. Unset, empty, or unparsable values keep the default.
func envWorkers() int {
	v := os.Getenv("AUROCHS_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return n
}

// Run ticks the system until every component reports Done, the cycle budget
// is exhausted, or no progress is observed for a grace window. It returns
// the number of cycles simulated.
func (s *System) Run(maxCycles int64) (int64, error) {
	return s.RunWith(maxCycles, RunOptions{})
}

// RunParallel runs with the given worker count (see RunOptions.Workers).
func (s *System) RunParallel(maxCycles int64, workers int) (int64, error) {
	return s.RunWith(maxCycles, RunOptions{Workers: workers})
}

// RunWith is Run with an explicit kernel selection. Both kernels are
// event-driven (see wake.go): a cycle examines only the components in the
// wake set, so a quiescent cycle costs one empty step, and deadlock and
// budget errors carry the same cycle numbers the polling kernel reported.
func (s *System) RunWith(maxCycles int64, opt RunOptions) (int64, error) {
	requested := opt.Workers
	if requested == 0 {
		requested = envWorkers()
	}
	plan := s.PlanShards()
	workers, reason := requested, FallbackNone
	switch {
	case requested < 0:
		workers, reason = s.autoWorkers(-requested, plan)
	case requested <= 1:
		workers, reason = 1, FallbackRequestedSerial
	default:
		// An explicit positive count skips the auto heuristics, but a plan
		// with a single shard (or a single component) is serial regardless:
		// one atom can only ever run on one worker.
		if len(plan.Shards) < 2 || len(s.comps) < 2 {
			workers, reason = 1, FallbackSingleShard
		}
	}
	grace := s.graceWindow()
	sched := newScheduler(s)
	sched.noSkip = opt.NoIdleSkip
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(s, sched, plan, workers, opt.NoIdleSkip)
		defer pool.stop()
	} else {
		// Serial kernel: wire the dirty-link tracker so commit visits only
		// links with pending work. The pointers are cleared on exit — a later
		// parallel run's workers must never reach a stale scheduler.
		sched.trackDirty = true
		for _, l := range s.links {
			l.sched = sched
		}
		defer func() {
			for _, l := range s.links {
				l.sched = nil
			}
		}()
	}
	s.effectiveWorkers = 1
	if pool != nil {
		s.effectiveWorkers = pool.workers()
	}
	s.recordKernelDecision(requested, reason, plan)
	idle := int64(0)
	start := s.cycle
	for s.cycle-start < maxCycles {
		if sched.allDone() {
			return s.cycle - start, nil
		}
		sched.beginCycle(s.cycle)
		var moved bool
		if pool != nil {
			moved = sched.stepParallel(s.cycle, pool)
		} else {
			moved = sched.stepSerial(s.cycle)
		}
		s.cycle++
		if moved {
			idle = 0
		} else {
			idle++
			if idle > grace {
				return s.cycle - start, &DeadlockError{Cycle: s.cycle, Stuck: s.stuckNames()}
			}
		}
	}
	if sched.allDone() {
		return s.cycle - start, nil
	}
	return s.cycle - start, &BudgetError{Budget: maxCycles, Cycle: s.cycle, Stuck: s.stuckNames()}
}

// EffectiveWorkers reports the worker count the most recent RunWith used
// after resolving auto mode (1 when it fell back to the serial kernel, or
// before any run).
func (s *System) EffectiveWorkers() int {
	if s.effectiveWorkers < 1 {
		return 1
	}
	return s.effectiveWorkers
}

// KernelDecision reports how the most recent RunWith resolved its tick
// kernel: requested vs resolved workers, the fallback reason (if any), and
// the shard-plan shape the decision was made on. Zero before any run.
func (s *System) KernelDecision() KernelDecision { return s.lastKernel }

// recordKernelDecision stores the resolved kernel choice and surfaces it
// through the Stats meta channel (never the counters, which must stay
// bit-identical across kernels). The fallback reason in particular is no
// longer discarded: harnesses read it back via Stats().Meta() or
// KernelDecision() and the bench JSON quotes it per experiment.
func (s *System) recordKernelDecision(requested int, reason string, plan *ShardPlan) {
	s.lastKernel = KernelDecision{
		Requested:    requested,
		Resolved:     s.EffectiveWorkers(),
		Fallback:     reason,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Components:   len(s.comps),
		Shards:       len(plan.Shards),
		Stages:       plan.Stages,
		MaxLanes:     plan.MaxLanes,
		LargestShard: plan.Largest,
		LargestShare: plan.LargestShare(),
	}
	st := s.stats
	st.SetMeta("kernel.workers_requested", strconv.Itoa(requested))
	st.SetMeta("kernel.workers_resolved", strconv.Itoa(s.EffectiveWorkers()))
	st.SetMeta("kernel.fallback", reason)
	st.SetMeta("kernel.shards", strconv.Itoa(len(plan.Shards)))
	st.SetMeta("kernel.stages", strconv.Itoa(plan.Stages))
	st.SetMeta("kernel.max_lanes", strconv.Itoa(plan.MaxLanes))
	st.SetMeta("kernel.largest_shard", strconv.Itoa(plan.Largest))
	st.SetMeta("kernel.gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
}

// graceWindow derives the deadlock detector's no-progress tolerance from
// the registered topology: a base allowance for fabric pipelines, the
// worst link latency, and every component-declared internal latency bound
// (DRAM queues, scratchpad pipelines). A fixed constant here was a bug:
// a legal dram.Config with a deep queue and a large row-miss penalty could
// exceed any constant and be misreported as deadlock.
func (s *System) graceWindow() int64 {
	g := int64(256)
	maxLat := 0
	for _, l := range s.links {
		if l.latency > maxLat {
			maxLat = l.latency
		}
	}
	g += int64(4 * maxLat)
	for _, c := range s.comps {
		if lb, ok := c.(LatencyBound); ok {
			g += lb.WorstCaseInternalLatency()
		}
	}
	return g
}

// allDone is the full-sweep termination check; the runner proper uses the
// scheduler's O(1) incremental version, but the conformance harnesses (which
// instrument every cycle anyway) keep using this one.
func (s *System) allDone() bool {
	for _, c := range s.comps {
		if !c.Done() {
			return false
		}
	}
	for _, l := range s.links {
		if !l.Drained() {
			return false
		}
	}
	return true
}

func (s *System) stuckNames() []string {
	var out []string
	for _, c := range s.comps {
		if !c.Done() {
			out = append(out, c.Name())
		}
	}
	for _, l := range s.links {
		if !l.Drained() {
			out = append(out, "link:"+l.name)
		}
	}
	sort.Strings(out)
	return out
}
