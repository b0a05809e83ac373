package core

import (
	"runtime"
	"sort"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
)

// kernelRun is one kernel execution: timing, the rendered counter set, and
// a functional fingerprint of the output, canonicalized so runs can be
// compared field-for-field.
type kernelRun struct {
	cycles    int64
	dramBytes int64
	stats     string
	output    []record.Rec
}

func canon(recs []record.Rec) []record.Rec {
	out := append([]record.Rec(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		for f := 0; f < record.MaxFields; f++ {
			if out[i].F[f] != out[j].F[f] {
				return out[i].F[f] < out[j].F[f]
			}
		}
		return false
	})
	return out
}

func kvRecs(n, seed int) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		k := uint32(i*seed+7) % uint32(n)
		recs[i] = record.Make(k, uint32(seed*1000+i))
	}
	return recs
}

// workerCounts: serial reference plus the two parallel configurations the
// issue's acceptance criteria name.
func workerCounts() []int {
	return []int{0, 2, runtime.GOMAXPROCS(0)}
}

func checkEquivalent(t *testing.T, name string, runs []kernelRun) {
	t.Helper()
	ref := runs[0]
	if len(ref.output) == 0 && name != "partition" {
		t.Fatalf("%s: serial run produced no output", name)
	}
	for i, r := range runs[1:] {
		if r.cycles != ref.cycles {
			t.Errorf("%s workers=%d: cycles %d != serial %d", name, workerCounts()[i+1], r.cycles, ref.cycles)
		}
		if r.dramBytes != ref.dramBytes {
			t.Errorf("%s workers=%d: DRAM bytes %d != serial %d", name, workerCounts()[i+1], r.dramBytes, ref.dramBytes)
		}
		if r.stats != ref.stats {
			t.Errorf("%s workers=%d: stats diverge\nserial:\n%s\ngot:\n%s", name, workerCounts()[i+1], ref.stats, r.stats)
		}
		if len(r.output) != len(ref.output) {
			t.Errorf("%s workers=%d: %d outputs != serial %d", name, workerCounts()[i+1], len(r.output), len(ref.output))
			continue
		}
		for j := range ref.output {
			if r.output[j] != ref.output[j] {
				t.Errorf("%s workers=%d: output %d differs", name, workerCounts()[i+1], j)
				break
			}
		}
	}
}

func TestHashBuildProbeParallelEquivalence(t *testing.T) {
	build := kvRecs(800, 3)
	probes := make([]record.Rec, 400)
	for i := range probes {
		probes[i] = record.Make(uint32(i%800), uint32(i))
	}
	var runs []kernelRun
	for _, w := range workerCounts() {
		p := DefaultHashTableParams(len(build))
		p.Tuning = Tuning{Parallelism: w}
		ht, bres, err := BuildHashTable(p, build, nil)
		if err != nil {
			t.Fatal(err)
		}
		matches, pres, err := ProbeHashTable(ht, probes, ProbeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, kernelRun{
			cycles:    bres.Cycles + pres.Cycles,
			dramBytes: bres.DRAMBytes + pres.DRAMBytes,
			stats:     bres.Stats.String() + pres.Stats.String(),
			output:    canon(matches),
		})
	}
	checkEquivalent(t, "build+probe", runs)
}

// TestHashJoinFig11aParallelEquivalence runs the fig. 11a join shape (the
// benchmark's speedup target) at a test-sized n.
func TestHashJoinFig11aParallelEquivalence(t *testing.T) {
	n := 1 << 10
	a, b := kvRecs(n, 1), kvRecs(n, 2)
	var runs []kernelRun
	for _, w := range workerCounts() {
		matches, res, err := HashJoin(nil, a, b, HashJoinOptions{
			Pipelines: 4,
			Tuning:    Tuning{Parallelism: w},
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(matches)})
	}
	checkEquivalent(t, "hashjoin-11a", runs)
}

func TestPartitionParallelEquivalence(t *testing.T) {
	input := kvRecs(1200, 5)
	var runs []kernelRun
	for _, w := range workerCounts() {
		p := DefaultPartitionParams(len(input), 8, 2)
		p.Tuning = Tuning{Parallelism: w}
		ps, res, err := Partition(p, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Fingerprint the partitioned layout functionally.
		var out []record.Rec
		for part := uint32(0); part < 8; part++ {
			out = append(out, ps.ReadPartition(part)...)
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(out)})
	}
	checkEquivalent(t, "partition", runs)
}

func TestHashAggregateParallelEquivalence(t *testing.T) {
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = uint32(i % 37)
	}
	var runs []kernelRun
	for _, w := range workerCounts() {
		p := DefaultHashTableParams(64)
		p.Tuning = Tuning{Parallelism: w}
		agg, res, err := HashAggregate(p, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []record.Rec
		for k, c := range agg.Groups() { // lint:maprange-ok — canon sorts below
			out = append(out, record.Make(k, uint32(c)))
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(out)})
	}
	checkEquivalent(t, "aggregate", runs)
}

func TestBTreeSearchParallelEquivalence(t *testing.T) {
	queries := make([]RangeQuery, 60)
	for i := range queries {
		lo := uint32(i * 20)
		queries[i] = RangeQuery{Lo: lo, Hi: lo + 30, Tag: uint32(i)}
	}
	var runs []kernelRun
	for _, w := range workerCounts() {
		// Fresh HBM and tree per configuration: every run starts from an
		// identical initial state (row-buffer state persists across runs).
		h := dram.New(dram.DefaultConfig())
		items := make([]btree.KV, 500)
		for i := range items {
			items[i] = btree.KV{Key: uint32(i * 3), Val: uint32(i)}
		}
		tr := btree.Build(h, RegionTables, items)
		hits, res, err := BTreeSearchP(tr, queries, Tuning{Parallelism: w}, 2)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(hits)})
	}
	checkEquivalent(t, "btree", runs)
}

func TestRTreeWindowParallelEquivalence(t *testing.T) {
	queries := make([]WindowQuery, 30)
	for i := range queries {
		x := uint32((i * 31) % 900)
		queries[i] = WindowQuery{Rect: rtree.Rect{MinX: x, MinY: x, MaxX: x + 60, MaxY: x + 60}, Tag: uint32(i)}
	}
	var runs []kernelRun
	for _, w := range workerCounts() {
		h := dram.New(dram.DefaultConfig())
		entries := make([]rtree.Entry, 400)
		for i := range entries {
			x := uint32((i * 13) % 1000)
			y := uint32((i * 29) % 1000)
			entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 8, MaxY: y + 8}, ID: uint32(i)}
		}
		tr := rtree.Build(h, RegionTables, entries, 1024)
		hits, res, err := RTreeWindowP(tr, queries, Tuning{Parallelism: w}, 2)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(hits)})
	}
	checkEquivalent(t, "rtree-window", runs)
}

func TestSpatialJoinParallelEquivalence(t *testing.T) {
	var runs []kernelRun
	for _, w := range workerCounts() {
		h := dram.New(dram.DefaultConfig())
		mk := func(base uint32, n int, off uint32) *rtree.Tree {
			entries := make([]rtree.Entry, n)
			for i := range entries {
				x := uint32((i*17+int(off))%500) + 1
				y := uint32((i*23+int(off))%500) + 1
				entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 12, MaxY: y + 12}, ID: uint32(i)}
			}
			return rtree.Build(h, base, entries, 600)
		}
		ta := mk(RegionTables, 150, 0)
		tb := mk(RegionTables+1<<22, 150, 7)
		pairs, res, err := RTreeSpatialJoin(ta, tb, Tuning{Parallelism: w})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]record.Rec, len(pairs))
		for i, p := range pairs {
			out[i] = record.Make(p.A, p.B)
		}
		runs = append(runs, kernelRun{cycles: res.Cycles, dramBytes: res.DRAMBytes, stats: res.Stats.String(), output: canon(out)})
	}
	checkEquivalent(t, "spatial-join", runs)
}
