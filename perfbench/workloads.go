package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/record"
)

// Workload sizes. Each is large enough that simulated rows per cycle have
// plateaued (fill and drain are amortized) and one kernel call takes one
// to three host seconds on a 2-CPU x86 host.
const (
	joinRows     = 1 << 17 // rows per join side
	aggKeys      = 1 << 19 // aggregated keys
	aggGroups    = 4000    // Zipf support: a few thousand distinct groups
	aggZipfS     = 1.1     // Zipf exponent of the group keys
	aggZipfV     = 100     // Zipf head offset: P(rank k) ∝ (aggZipfV+k)^-aggZipfS
	btreeEntries = 1 << 20 // entries bulk-loaded into the B-tree
	btreeQueries = 1 << 15 // range queries per kernel call
	btreeSpan    = 1 << 14 // key-range width: ~4 hits over 2^20 uniform keys
	btreePipes   = 4       // BTreeSearchP pipelines
	joinPipes    = 16      // fig. 11a stream-level parallelism P
)

// instance is one seeded set of inputs on a fresh HBM the benchmark owns,
// plus the kernel call and its host reference check. A kernel call keeps
// its output in the instance until the next call.
type instance struct {
	// records is the input-record count the per-record metrics divide by.
	records int
	// ops is the number of operations checked against the host reference
	// (probe rows, groups, queries).
	ops int
	hbm *dram.HBM
	// reset gives the next call fresh simulated state: a new HBM, with the
	// B-tree's words copied in. Callers reset before every call, outside
	// the timed region.
	reset func()
	// run calls the kernel once with the given simulator worker count.
	run func(workers int) (core.Result, error)
	// verify returns how many operations of the last run's output disagree
	// with the host reference.
	verify func() int
	// digest fingerprints the last run's output, order included.
	digest func() uint64
	// trace re-runs the kernel with host-time spans around its public
	// calls, recording spans and simulated counters into t. The traced
	// call's output replaces the last run's.
	trace func(workers int, t *tracer) (core.Result, error)
}

// setupTimes splits one set-up into input generation and the whole set-up
// (generation plus the B-tree bulk load).
type setupTimes struct {
	gen, total float64
}

// workload is one benchmark workload: how to build its seeded inputs at
// full size (small=false) or at the small companion size the traced runs
// of other workloads use to time its core entry point.
type workload struct {
	name    string
	kernel  string // the core kernel it measures
	workers int    // simulator worker goroutines of the measured calls
	setup   func(seed int64, small bool) (*instance, setupTimes)
	why     string // why the benchmark has it (BENCHMARK.json)
}

var workloads = []*workload{
	{name: "join", kernel: "join", workers: 1, setup: setupJoin,
		why: "fig. 11a radix hash join, 2x128K rows, each probe row matching once: the headline kernel, running every layer (DRAM streaming, spad RMW, links, filters, merges, sink output)"},
	{name: "aggregate", kernel: "aggregate", workers: 1, setup: setupAggregate,
		why: "hash aggregate over Zipf keys, ~4000 groups: bound by spad tiles and the walk loop with hot-bank RMW conflicts; moves zero DRAM bytes, so DRAM-layer changes must leave it flat"},
	{name: "btree", kernel: "btree", workers: 1, setup: setupBTree,
		why: "range queries over a 1M-entry DRAM-resident B-tree: latency-bound pointer chasing through DRAMExpand and SpillQueue, no spad; random node reads unlike the join's streaming"},
	{name: "join-2w", kernel: "join", workers: 2, setup: setupJoin,
		why: "the join inputs with 2 simulator workers: the only workload that measures the parallel kernel, where its keep-or-delete rule (>=1.2x or delete) is decided"},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix32 is a bijection on uint32 (odd multiplies and xor-shifts), so
// distinct inputs give distinct, well-scattered keys.
func mix32(x uint32) uint32 {
	x *= 0x9e3779b1
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	return x
}

func newHBM() *dram.HBM { return dram.New(dram.DefaultConfig()) }

// digestRecs hashes records in order.
func digestRecs(recs []record.Rec) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, r := range recs {
		for i := 0; i < r.Len(); i++ {
			v := r.Get(i)
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// --- join: fig. 11a composed radix hash join, foreign-key shaped ---

// joinInputs draws n unique build keys and n probe rows whose keys are all
// drawn from the build keys, so every probe row matches exactly once.
// Build rows are [key, val]; probe rows are [key, row id].
func joinInputs(seed int64, n int) (build, probe []record.Rec) {
	rng := rand.New(rand.NewSource(seed))
	salt := rng.Uint32()
	build = make([]record.Rec, n)
	for i := range build {
		build[i] = record.Make(mix32(uint32(i)^salt), rng.Uint32())
	}
	probe = make([]record.Rec, n)
	for i := range probe {
		probe[i] = record.Make(build[rng.Intn(n)].Get(0), uint32(i))
	}
	return build, probe
}

func joinOptions(workers int) core.HashJoinOptions {
	return core.HashJoinOptions{Pipelines: joinPipes, Tuning: core.Tuning{Parallelism: workers}}
}

func setupJoin(seed int64, small bool) (*instance, setupTimes) {
	n := joinRows
	if small {
		n = 1 << 13
	}
	start := time.Now()
	build, probe := joinInputs(seed, n)
	gen := time.Since(start).Seconds()
	in := &instance{records: 2 * n, ops: n}
	var matches []record.Rec
	var last core.Result
	in.reset = func() { in.hbm = newHBM() }
	in.run = func(workers int) (core.Result, error) {
		var err error
		matches, last, err = core.HashJoin(in.hbm, build, probe, joinOptions(workers))
		return last, err
	}
	in.verify = func() int { return verifyJoin(build, probe, matches) }
	in.digest = func() uint64 { return digestRecs(matches) }
	in.trace = func(workers int, t *tracer) (core.Result, error) {
		got, res, err := replayJoin(in.hbm, build, probe, joinOptions(workers), t)
		if err != nil {
			return res, err
		}
		// The replay must be HashJoin, phase for phase: same summed cycles,
		// same DRAM bytes, same match multiset as the untraced call on the
		// same seed. The caller then checks the rest of the simulated
		// counts and the match order through the instance.
		if res.Cycles != last.Cycles || res.DRAMBytes != last.DRAMBytes {
			return res, fmt.Errorf("join replay: %d cycles, %d DRAM bytes; core.HashJoin: %d cycles, %d DRAM bytes",
				res.Cycles, res.DRAMBytes, last.Cycles, last.DRAMBytes)
		}
		if !sameMultiset(got, matches) {
			return res, fmt.Errorf("join replay: match multiset differs from core.HashJoin's (%d vs %d matches)",
				len(got), len(matches))
		}
		matches = got
		return res, nil
	}
	return in, setupTimes{gen: gen, total: time.Since(start).Seconds()}
}

// verifyJoin checks matches ([key, probe row id, build val]) against a
// host key→val map: each probe row must appear in exactly one match with
// its own key and the build value stored under that key. It returns the
// number of failed probe rows; a match naming no valid probe row fails one
// more operation, up to the operation count.
func verifyJoin(build, probe []record.Rec, matches []record.Rec) int {
	ref := make(map[uint32]uint32, len(build))
	for _, r := range build {
		ref[r.Get(0)] = r.Get(1)
	}
	seen := make([]int, len(probe))
	stray := 0
	for _, m := range matches {
		key, row, val := m.Get(0), m.Get(1), m.Get(2)
		want, ok := ref[key]
		if int(row) >= len(probe) || probe[row].Get(0) != key || !ok || want != val {
			stray++
			continue
		}
		seen[row]++
	}
	failed := 0
	for _, c := range seen {
		if c != 1 {
			failed++
		}
	}
	return min(failed+stray, len(probe))
}

// sameMultiset reports whether a and b hold the same records, ignoring
// order.
func sameMultiset(a, b []record.Rec) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[record.Rec]int, len(a))
	for _, r := range a {
		count[r]++
	}
	for _, r := range b {
		count[r]--
		if count[r] < 0 {
			return false
		}
	}
	return true
}

// --- aggregate: lock-free counting hash aggregation over Zipf keys ---

func aggInputs(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	salt := rng.Uint32()
	z := rand.NewZipf(rng, aggZipfS, aggZipfV, aggGroups-1)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = mix32(uint32(z.Uint64()) ^ salt)
	}
	return keys
}

func aggParams(workers int) core.HashTableParams {
	p := core.DefaultHashTableParams(aggGroups)
	p.Tuning = core.Tuning{Parallelism: workers}
	return p
}

func setupAggregate(seed int64, small bool) (*instance, setupTimes) {
	n := aggKeys
	if small {
		n = 1 << 14
	}
	start := time.Now()
	keys := aggInputs(seed, n)
	gen := time.Since(start).Seconds()
	in := &instance{records: n}
	var groups map[uint32]int64
	in.reset = func() { in.hbm = newHBM() }
	in.run = func(workers int) (core.Result, error) {
		agg, res, err := core.HashAggregate(aggParams(workers), keys, in.hbm)
		groups = nil
		if err == nil {
			groups = agg.Groups()
		}
		return res, err
	}
	in.verify = func() int { return verifyGroups(keys, groups) }
	in.digest = func() uint64 {
		ks := make([]uint32, 0, len(groups))
		for k := range groups {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		recs := make([]record.Rec, len(ks))
		for i, k := range ks {
			recs[i] = record.Make(k, uint32(groups[k]))
		}
		return digestRecs(recs)
	}
	in.trace = func(workers int, t *tracer) (core.Result, error) {
		var agg *core.AggResult
		var res core.Result
		var err error
		t.span("core.aggregate.host_s", func() {
			agg, res, err = core.HashAggregate(aggParams(workers), keys, in.hbm)
		})
		if err != nil {
			return res, err
		}
		groups = agg.Groups()
		t.kernel(res, in.hbm)
		return res, nil
	}
	st := setupTimes{gen: gen, total: time.Since(start).Seconds()}
	// The operation count is the reference group count, known before any
	// run so that an errored first run still counts every group as failed.
	in.ops = verifyGroups(keys, nil)
	return in, st
}

// verifyGroups compares per-group counts with a host count map and
// returns the number of failed groups: a reference group whose count
// differs, or a group the reference does not have, up to the reference
// group count.
func verifyGroups(keys []uint32, got map[uint32]int64) int {
	ref := make(map[uint32]int64)
	for _, k := range keys {
		ref[k]++
	}
	failed := 0
	for k, c := range ref {
		if got[k] != c {
			failed++
		}
	}
	for k := range got {
		if _, ok := ref[k]; !ok {
			failed++
		}
	}
	return min(failed, len(ref))
}

// --- btree: range queries over a DRAM-resident bulk-loaded B-tree ---

func btreeInputs(seed int64, entries, queries int) ([]btree.KV, []core.RangeQuery) {
	rng := rand.New(rand.NewSource(seed))
	items := make([]btree.KV, entries)
	for i := range items {
		items[i] = btree.KV{Key: rng.Uint32(), Val: uint32(i)}
	}
	qs := make([]core.RangeQuery, queries)
	for i := range qs {
		lo := rng.Uint32()
		hi := uint32(math.MaxUint32)
		if lo <= math.MaxUint32-btreeSpan {
			hi = lo + btreeSpan - 1
		}
		qs[i] = core.RangeQuery{Lo: lo, Hi: hi, Tag: uint32(i)}
	}
	return items, qs
}

func setupBTree(seed int64, small bool) (*instance, setupTimes) {
	entries, nq := btreeEntries, btreeQueries
	if small {
		entries, nq = 1<<16, 1<<11
	}
	start := time.Now()
	items, queries := btreeInputs(seed, entries, nq)
	gen := time.Since(start).Seconds()
	// The bulk load sorts items in place; the sorted slice is the host
	// reference for the range scans.
	tree := btree.Build(newHBM(), core.RegionTables, items)
	in := &instance{records: nq, ops: nq, hbm: tree.HBM}
	var hits []record.Rec
	// A kernel call leaves row-buffer state behind in the HBM, which would
	// change the next call's cycles; every call after the first gets a
	// fresh copy of the tree's words.
	used := false
	in.reset = func() {
		if used {
			h := newHBM()
			h.LoadWords(tree.Base, tree.HBM.SnapshotWords(tree.Base, int(tree.WordsUsed())))
			tree.HBM, in.hbm = h, h
		}
		used = true
	}
	in.run = func(workers int) (core.Result, error) {
		var res core.Result
		var err error
		hits, res, err = core.BTreeSearchP(tree, queries, core.Tuning{Parallelism: workers}, btreePipes)
		return res, err
	}
	in.verify = func() int { return verifyRanges(items, queries, hits) }
	in.digest = func() uint64 { return digestRecs(hits) }
	in.trace = func(workers int, t *tracer) (core.Result, error) {
		var res core.Result
		var err error
		t.span("core.btree.host_s", func() {
			hits, res, err = core.BTreeSearchP(tree, queries, core.Tuning{Parallelism: workers}, btreePipes)
		})
		if err != nil {
			return res, err
		}
		t.kernel(res, in.hbm)
		return res, nil
	}
	return in, setupTimes{gen: gen, total: time.Since(start).Seconds()}
}

// verifyRanges checks B-tree hits ([key, val, tag]) against a range scan
// of the sorted entries: each query's hits must be exactly the entries
// with Lo <= key <= Hi. It returns the number of failed queries; a hit
// with an unknown tag fails one more, up to the query count.
func verifyRanges(sorted []btree.KV, queries []core.RangeQuery, hits []record.Rec) int {
	got := make([][]btree.KV, len(queries))
	stray := 0
	for _, h := range hits {
		tag := h.Get(2)
		if int(tag) >= len(queries) {
			stray++
			continue
		}
		got[tag] = append(got[tag], btree.KV{Key: h.Get(0), Val: h.Get(1)})
	}
	less := func(kv []btree.KV) func(i, j int) bool {
		return func(i, j int) bool {
			if kv[i].Key != kv[j].Key {
				return kv[i].Key < kv[j].Key
			}
			return kv[i].Val < kv[j].Val
		}
	}
	failed := 0
	for i, q := range queries {
		lo := sort.Search(len(sorted), func(j int) bool { return sorted[j].Key >= q.Lo })
		hi := lo
		for hi < len(sorted) && sorted[hi].Key <= q.Hi {
			hi++
		}
		want := append([]btree.KV(nil), sorted[lo:hi]...)
		g := got[i]
		if len(g) != len(want) {
			failed++
			continue
		}
		sort.Slice(want, less(want))
		sort.Slice(g, less(g))
		for j := range g {
			if g[j] != want[j] {
				failed++
				break
			}
		}
	}
	return min(failed+stray, len(queries))
}
