// Command aurochs-perfbench measures what the Aurochs simulator costs on
// the host per simulated input record, on the paper's three kernel shapes:
// the fig. 11a partitioned hash join (also with two simulator workers),
// the RMW-heavy hash aggregate and the pointer-chasing B-tree range walk.
//
//	aurochs-perfbench --workload join --seed 1 --seconds 10 --trace 0
//	aurochs-perfbench compare old.out new.out
//	aurochs-perfbench spec > BENCHMARK.json
//
// A run builds its inputs from the seed, calls the kernel until the
// measured time is up (after one untimed warm-up call), checks every
// output against a host reference, and checks that every call's simulated
// counts equal the first call's. With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it replays the kernel with host-time spans
// around its public calls and runs one driver per simulator layer, and
// reports the per-layer metrics. The last line of standard output is the
// result as one JSON object; the line before it is the full report (host
// facts, seed, per-call times, metrics), which compare reads back from a
// saved output. See README.md for the workloads, the metrics and the layer
// map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"aurochs/internal/core"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			b, err := specJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "aurochs-perfbench:", err)
				os.Exit(1)
			}
			os.Stdout.Write(b)
			return
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// minRepeats is the fewest timed kernel calls a run makes, however short
// its measured time.
const minRepeats = 3

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of a run.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts checked operations and failures.
type tally struct{ attempted, failed int }

func (t *tally) add(ops, failed int) {
	t.attempted += ops
	t.failed += failed
}

// simCounts is everything simulated about one kernel call. It must repeat
// exactly from call to call; any difference fails the run.
type simCounts struct {
	Cycles, DRAMBytes                         int64
	ReadBursts, WriteBursts, RowHits, RowMiss int64
	Stalls, CoalescedWrites                   int64
	Counters                                  map[string]int64
	Digest                                    uint64
}

func countsOf(res core.Result, in *instance) simCounts {
	c := simCounts{Cycles: res.Cycles, DRAMBytes: res.DRAMBytes, Digest: in.digest()}
	if h := in.hbm; h != nil {
		c.ReadBursts, c.WriteBursts, c.RowHits, c.RowMiss = h.ReadBursts, h.WriteBursts, h.RowHits, h.RowMisses
		c.Stalls, c.CoalescedWrites = h.Stalls, h.CoalescedWrites
	}
	if res.Stats != nil {
		if snap := res.Stats.Snapshot(); len(snap) > 0 {
			c.Counters = snap
		}
	}
	return c
}

// sample is the host cost of one timed kernel call.
type sample struct {
	wallNs, cpuNs, allocB float64
}

// timedCall runs the kernel once, measuring wall time, process CPU time
// and heap bytes allocated around the call only.
func timedCall(in *instance, workers int) (sample, core.Result, error) {
	in.reset()
	var ru0, ru1 syscall.Rusage
	a0 := totalAlloc()
	// Getrusage fails only on a bad "who" or pointer; neither can occur.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	start := time.Now()
	res, err := in.run(workers)
	wall := time.Since(start)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	a1 := totalAlloc()
	return sample{
		wallNs: float64(wall.Nanoseconds()),
		cpuNs:  float64(cpuNs(ru1) - cpuNs(ru0)),
		allocB: float64(a1 - a0),
	}, res, err
}

func cpuNs(ru syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errNondeterministic marks a call whose simulated counts differ from the
// run's first call.
var errNondeterministic = errors.New("simulated counts differ from the first call")

// caller makes a run's kernel calls: each on a fresh instance, verified
// against the host reference, with its simulated counts checked against
// ref, the first call's. The first call is the warm-up with the serial
// kernel, so a parallel workload's calls are checked against the serial
// kernel's cycles, counters and output.
type caller struct {
	w       *workload
	seed    int64
	ref     *simCounts
	tally   tally
	setups  []setupTimes
	verifyS []float64
}

func (c *caller) setup(small bool) *instance {
	runtime.GC()
	in, st := c.w.setup(c.seed, small)
	if !small {
		c.setups = append(c.setups, st)
	}
	return in
}

// check verifies the last call's output and compares its counts with the
// reference counts.
func (c *caller) check(in *instance, sc simCounts) error {
	start := time.Now()
	failed := in.verify()
	c.verifyS = append(c.verifyS, time.Since(start).Seconds())
	c.tally.add(in.ops, failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d operations disagree with the host reference", failed, in.ops)
	}
	if c.ref == nil {
		c.ref = &sc
		return nil
	}
	if !reflect.DeepEqual(sc, *c.ref) {
		return fmt.Errorf("%w: got %+v, first call %+v", errNondeterministic, sc.brief(), c.ref.brief())
	}
	return nil
}

func (s simCounts) brief() map[string]any {
	return map[string]any{"cycles": s.Cycles, "dram_bytes": s.DRAMBytes, "read_bursts": s.ReadBursts,
		"write_bursts": s.WriteBursts, "row_hits": s.RowHits, "digest": s.Digest, "counters": len(s.Counters)}
}

// timed makes one timed call on a fresh instance.
func (c *caller) timed(workers int) (*instance, sample, error) {
	in := c.setup(false)
	runtime.GC()
	s, res, err := timedCall(in, workers)
	if err != nil {
		c.tally.add(in.ops, in.ops)
		return in, s, err
	}
	return in, s, c.check(in, countsOf(res, in))
}

// budget spends the measured time: another call starts only while one
// more call as long as the last still fits, so a run ends near its
// measured time instead of one call past it.
type budget struct {
	end  time.Time
	last time.Duration
}

func newBudget(seconds float64) *budget {
	return &budget{end: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

// lap records one call (set-up, kernel and checks) that began at start.
func (b *budget) lap(start time.Time) { b.last = time.Since(start) }

func (b *budget) fits() bool { return time.Now().Add(b.last).Before(b.end) }

// measure is the untraced run: end-to-end metrics.
func measure(w *workload, seed int64, seconds float64) (outcome, []float64, error) {
	c := &caller{w: w, seed: seed}
	var samples []sample
	var records int
	var b *budget
	for i := 0; i == 0 || len(samples) < minRepeats || b.fits(); i++ {
		start := time.Now()
		workers := w.workers
		if i == 0 {
			workers = 1 // warm-up: the serial reference
		}
		in, s, err := c.timed(workers)
		if err != nil {
			return c.outcome(nil), nil, err
		}
		records = in.records
		fmt.Fprintf(os.Stderr, "call %d (%d workers): %.1f wall ns/record, %.1f cpu ns/record\n",
			i, workers, s.wallNs/float64(records), s.cpuNs/float64(records))
		if i == 0 {
			b = newBudget(seconds)
			continue
		}
		samples = append(samples, s)
		b.lap(start)
	}
	per := func(f func(sample) float64) float64 {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = f(s) / float64(records)
		}
		return median(vals)
	}
	m := map[string]float64{
		"host_ns_per_record":     per(func(s sample) float64 { return s.wallNs }),
		"cpu_ns_per_record":      per(func(s sample) float64 { return s.cpuNs }),
		"alloc_bytes_per_record": per(func(s sample) float64 { return s.allocB }),
		"sim_cycles":             float64(c.ref.Cycles),
		"peak_rss_mb":            peakRSSMB(),
		"setup_s":                median(c.setupField(func(s setupTimes) float64 { return s.total })),
		"correct_frac":           1 - float64(c.tally.failed)/float64(c.tally.attempted),
	}
	calls := make([]float64, len(samples))
	for i, s := range samples {
		calls[i] = s.wallNs / float64(records)
	}
	return c.outcome(m), calls, nil
}

func (c *caller) setupField(f func(setupTimes) float64) []float64 {
	vals := make([]float64, len(c.setups))
	for i, s := range c.setups {
		vals[i] = f(s)
	}
	return vals
}

// outcome packages metrics (nil after a failure) with the unit table.
func (c *caller) outcome(m map[string]float64) outcome {
	o := outcome{Correct: m != nil && c.tally.failed == 0, Attempted: c.tally.attempted,
		Failed: c.tally.failed, Metrics: map[string]metricValue{}}
	for _, spec := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if v, ok := m[spec.name]; ok {
			o.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
		}
	}
	if o.Attempted == 0 {
		o.Attempted = 1 // nothing ran: one attempted operation, failed
		o.Failed = 1
	}
	return o
}

// traced is the traced run: per-layer metrics. It alternates untraced and
// traced calls on fresh instances until the measured time is up, then
// times the other kernels' core entry points on small companion inputs,
// then runs every layer driver.
func traced(w *workload, seed int64, seconds float64) (outcome, []float64, error) {
	c := &caller{w: w, seed: seed}
	// Warm-up: the serial reference.
	if _, _, err := c.timed(1); err != nil {
		return c.outcome(nil), nil, err
	}
	var plain, tracedNs []float64
	var tracers []*tracer
	for b := newBudget(seconds); len(tracers) == 0 || b.fits(); {
		lap := time.Now()
		in, s, err := c.timed(w.workers)
		if err != nil {
			return c.outcome(nil), plain, err
		}
		plain = append(plain, s.wallNs/float64(in.records))
		in.reset()
		runtime.GC()
		t := newTracer()
		start := time.Now()
		res, err := in.trace(w.workers, t)
		tracedNs = append(tracedNs, float64(time.Since(start).Nanoseconds())/float64(in.records))
		if err != nil {
			c.tally.add(in.ops, in.ops)
			return c.outcome(nil), plain, err
		}
		if err := c.check(in, countsOf(res, in)); err != nil {
			return c.outcome(nil), plain, err
		}
		if len(tracers) > 0 && !reflect.DeepEqual(t.counts, tracers[0].counts) {
			return c.outcome(nil), plain, fmt.Errorf("%w: traced counters %v, first traced call %v",
				errNondeterministic, t.counts, tracers[0].counts)
		}
		tracers = append(tracers, t)
		b.lap(lap)
	}

	m := map[string]float64{}
	for k, v := range tracers[0].counts {
		m[k] = v
	}
	for name := range tracers[0].spans {
		vals := make([]float64, len(tracers))
		for i, t := range tracers {
			vals[i] = t.spans[name]
		}
		m[name] = median(vals)
	}
	if req := m["spad.requests"]; req > 0 {
		m["spad.conflicts_per_request"] = m["spad.conflicts"] / req
	}
	m["bench.trace_overhead_ns_per_record"] = median(tracedNs) - median(plain)
	m["bench.gen.host_s"] = median(c.setupField(func(s setupTimes) float64 { return s.gen }))
	m["bench.verify.host_s"] = median(c.verifyS)

	// Companion spans: every traced run times every core entry point, the
	// other kernels on small fixed inputs.
	for _, other := range workloads {
		if other.kernel == w.kernel || other.workers != 1 {
			continue
		}
		oc := &caller{w: other, seed: seed}
		in := oc.setup(true)
		if _, _, err := timedCall(in, 1); err != nil {
			return c.outcome(nil), plain, fmt.Errorf("companion %s: %w", other.name, err)
		}
		t := newTracer()
		in.reset()
		if _, err := in.trace(1, t); err != nil {
			return c.outcome(nil), plain, fmt.Errorf("companion %s: %w", other.name, err)
		}
		c.tally.add(in.ops, in.verify())
		for k, v := range t.spans {
			m[k] = v
		}
		for k, v := range t.counts {
			if strings.HasPrefix(k, "core.") {
				m[k] = v
			}
		}
	}

	drv, err := driverResults(w, seed)
	if err != nil {
		return c.outcome(nil), plain, err
	}
	for k, v := range drv {
		m[k] = v
	}
	for _, spec := range perLayer {
		if _, ok := m[spec.name]; !ok {
			m[spec.name] = 0 // a counter this workload's kernel never touches
		}
	}
	return c.outcome(m), plain, nil
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("aurochs-perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: join, aggregate, btree or join-2w")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced calls and layer drivers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && ((*trace != 0 && *trace != 1) || *seconds <= 0) {
		err = errors.New("need --trace 0 or 1 and --seconds > 0")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aurochs-perfbench:", err)
		return 2
	}
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "aurochs-perfbench: self-test:", err)
		return 1
	}
	run := measure
	if *trace == 1 {
		run = traced
	}
	o, calls, runErr := run(w, *seed, *seconds)
	rep := newReport(w.name, *seed, *trace, calls, o)
	if runErr != nil {
		rep.Error = runErr.Error()
		fmt.Fprintln(os.Stderr, "aurochs-perfbench:", runErr)
	}
	for _, v := range []any{rep, o} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aurochs-perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !o.Correct {
		return 1
	}
	return 0
}
