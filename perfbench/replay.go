package main

import (
	"fmt"
	"strings"
	"time"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// tracer collects the per-layer measurements of one traced kernel run:
// host-time spans around public calls, and simulated counters summed over
// every graph the run executed.
type tracer struct {
	spans  map[string]float64 // seconds per span name, summed
	counts map[string]float64 // simulated counters, summed
}

func newTracer() *tracer {
	return &tracer{spans: map[string]float64{}, counts: map[string]float64{}}
}

// span runs fn and adds its host wall time to the named span.
func (t *tracer) span(name string, fn func()) {
	start := time.Now()
	fn()
	t.spans[name] += time.Since(start).Seconds()
}

// counterSums maps a per-layer counter to the per-component stats suffix
// it sums (components name their counters "<component>.<suffix>").
var counterSums = []struct{ metric, suffix string }{
	{"fabric.dram_stall_cycles", ".dram_stall"},
	{"fabric.dram_reqs", ".dram_reqs"},
	{"fabric.expand.fetches", ".fetches"},
	{"fabric.spill.spilled", ".spilled"},
	{"fabric.spill.refills", ".refills"},
	{"spad.requests", ".requests"},
	{"spad.conflicts", ".conflicts"},
	{"spad.in_stall_cycles", ".in_stall"},
	{"spad.out_stall_cycles", ".out_stall"},
	{"spad.resp_stall_cycles", ".resp_stall"},
}

// stats adds one graph's counter snapshot to the sums.
func (t *tracer) stats(snap map[string]int64) {
	for name, v := range snap {
		for _, c := range counterSums {
			if strings.HasSuffix(name, c.suffix) {
				t.counts[c.metric] += float64(v)
			}
		}
	}
}

// kernel records a whole kernel call made through its public entry point:
// its counters and the HBM it ran on.
func (t *tracer) kernel(res core.Result, h *dram.HBM) {
	if res.Stats != nil {
		t.stats(res.Stats.Snapshot())
	}
	t.dram(h)
}

// dram records the HBM's own counters. The benchmark hands every kernel a
// fresh HBM, so these are the run's totals.
func (t *tracer) dram(h *dram.HBM) {
	t.counts["dram.bytes"] = float64(h.BytesMoved())
	t.counts["dram.read_bursts"] = float64(h.ReadBursts)
	t.counts["dram.write_bursts"] = float64(h.WriteBursts)
	t.counts["dram.row_hit_ratio"] = ratio(h.RowHits, h.RowHits+h.RowMisses)
	t.counts["dram.stalls"] = float64(h.Stalls)
	t.counts["dram.coalesced_write_ratio"] = ratio(h.CoalescedWrites, h.CoalescedWrites+h.WriteBursts)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// joinBudget mirrors core's cycle budget for a composed-join phase of n
// records. A budget only bounds a runaway run; any budget above the real
// cycle count gives the same cycles.
func joinBudget(n int) int64 { return (int64(n)*200 + 1_000_000) * 4 }

// replayJoin re-executes core.HashJoin phase by phase from core's public
// wiring API (PartitionInto, FinishPartition, Extents, InExtents,
// BuildHashTableInto, ProbeHashTableInto) and fabric.Graph, so each phase
// can be timed and its counters read: core.HashJoin itself returns empty
// Stats. It must reproduce HashJoin's cycles, DRAM bytes and matches; the
// caller checks that against a HashJoin call on the same inputs.
func replayJoin(hbm *dram.HBM, buildSide, probeSide []record.Rec, opt core.HashJoinOptions, t *tracer) ([]record.Rec, core.Result, error) {
	P := opt.Pipelines
	if P == 0 {
		P = 1
	}
	parts := uint32(1)
	for int(parts)*16384 < len(buildSide) {
		parts <<= 1
	}
	if parts < uint32(P) {
		parts = uint32(P)
	}
	partsPer := parts / uint32(P)
	var total core.Result

	// run executes one phase graph the way core's runGraph does: cycles,
	// then a write-buffer flush so the phase is charged its own DRAM bytes.
	run := func(phase string, g *fabric.Graph, budget int64) error {
		before := hbm.BytesMoved()
		var cycles int64
		var err error
		t.span("core."+phase+".host_s", func() { cycles, err = g.Run(budget) })
		hbm.FlushWrites()
		total.Cycles += cycles
		total.DRAMBytes += hbm.BytesMoved() - before
		t.counts["core."+phase+".cycles"] += float64(cycles)
		for _, l := range g.Sys.Links() {
			t.counts["sim.link.flits"] += float64(l.Pushes())
		}
		t.stats(g.Stats().Snapshot())
		if err != nil {
			return fmt.Errorf("%s: %w", phase, err)
		}
		return nil
	}
	newGraph := func() *fabric.Graph {
		g := fabric.NewGraph()
		g.AttachHBM(hbm)
		g.Workers = opt.Tuning.Parallelism
		return g
	}

	// Phase 1: radix-partition both sides, P pipelines each, routed on the
	// low hash bits.
	shift := uint(0)
	for v := 1; v < P; v <<= 1 {
		shift++
	}
	partitionSide := func(side string, recs []record.Rec, arenaOff uint32) ([]*core.PartitionSet, error) {
		g := newGraph()
		groups := make([][]record.Rec, P)
		for _, r := range recs {
			k := int(core.Hash32(r.Get(0)) & uint32(P-1))
			groups[k] = append(groups[k], r)
		}
		sets := make([]*core.PartitionSet, P)
		sinks := make([]*fabric.Sink, P)
		proto := core.DefaultPartitionParams(len(recs)+P, partsPer, 2)
		arena := proto.MaxBlocks * (1 + proto.BlockRecs*proto.RecWords)
		var err error
		t.span("core.wire.host_s", func() {
			for k := 0; k < P && err == nil; k++ {
				pp := proto
				pp.HashShift = shift
				pp.Tuning = opt.Tuning
				pp.BlockBase = core.RegionPartBlocks + arenaOff + uint32(k)*arena
				sets[k], sinks[k], err = core.PartitionInto(g, fmt.Sprintf("prt.%s%d", side, k), pp, core.InRecs(groups[k]))
			}
		})
		if err != nil {
			return nil, err
		}
		if err := run("partition", g, joinBudget(len(recs))); err != nil {
			return nil, err
		}
		for k := range sinks {
			if sinks[k].Count() != len(groups[k]) {
				return nil, fmt.Errorf("partition %s pipeline %d: stored %d of %d", side, k, sinks[k].Count(), len(groups[k]))
			}
		}
		core.FinishPartition(sets...)
		return sets, nil
	}
	buildSets, err := partitionSide("b", buildSide, 0)
	if err != nil {
		return nil, total, err
	}
	probeSets, err := partitionSide("p", probeSide, 1<<26)
	if err != nil {
		return nil, total, err
	}

	// Phase 2: per partition pair, build then probe, P pairs at a time.
	var matches []record.Rec
	for r := uint32(0); r < partsPer; r++ {
		gb := newGraph()
		tables := make([]*core.HashTable, P)
		bsinks := make([]*fabric.Sink, P)
		counts := make([]int, P)
		n := 0
		t.span("core.wire.host_s", func() {
			for k := 0; k < P && err == nil; k++ {
				in := core.InExtents(buildSets[k].Extents(r), 2)
				counts[k] = in.N
				n += in.N
				hp := core.DefaultHashTableParams(in.N + 1)
				hp.OverflowBase = core.RegionHashOverflow + uint32(k)*(1<<22)
				hp.Tuning = opt.Tuning
				tables[k], bsinks[k], err = core.BuildHashTableInto(gb, fmt.Sprintf("bld.%d", k), hp, in)
			}
		})
		if err != nil {
			return nil, total, err
		}
		if err := run("build", gb, joinBudget(n)); err != nil {
			return nil, total, err
		}
		for k := range bsinks {
			if bsinks[k].Count() != counts[k] {
				return nil, total, fmt.Errorf("build round %d pipeline %d: %d of %d", r, k, bsinks[k].Count(), counts[k])
			}
		}

		gp := newGraph()
		psinks := make([]*fabric.Sink, P)
		pn := 0
		t.span("core.wire.host_s", func() {
			for k := 0; k < P; k++ {
				in := core.InExtents(probeSets[k].Extents(r), 2)
				pn += in.N
				psinks[k] = core.ProbeHashTableInto(gp, fmt.Sprintf("prb.%d", k), tables[k], in,
					core.ProbeOptions{FirstMatchOnly: opt.FirstMatchOnly})
			}
		})
		if err := run("probe", gp, joinBudget(pn)); err != nil {
			return nil, total, err
		}
		for k := range psinks {
			matches = append(matches, psinks[k].Records()...)
		}
	}
	t.dram(hbm)
	return matches, total, nil
}
