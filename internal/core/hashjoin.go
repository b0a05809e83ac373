package core

import (
	"fmt"
	"slices"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
)

// HashJoinOptions configures the composed equi-join (paper §IV-A).
type HashJoinOptions struct {
	// Parts is the total partition count (power of two). Zero sizes it so
	// the expected partition fits the node scratchpad.
	Parts uint32
	// Pipelines is the stream-level parallelism P: how many partition /
	// build / probe pipelines run concurrently on the fabric, sharing the
	// HBM (fig. 12's knob).
	Pipelines int
	// FirstMatchOnly selects semi-join semantics.
	FirstMatchOnly bool
	// Tuning carries the ablation knobs.
	Tuning Tuning
}

func (o *HashJoinOptions) fill(n int) {
	if o.Pipelines == 0 {
		o.Pipelines = 1
	}
	if o.Parts == 0 {
		spadRecs := 16384 // ~expected partition that fits the node scratchpad
		parts := uint32(1)
		for int(parts)*spadRecs < n {
			parts <<= 1
		}
		o.Parts = parts
	}
	if o.Parts < uint32(o.Pipelines) {
		o.Parts = uint32(o.Pipelines)
	}
}

// HashJoin runs the full two-phase partitioned hash join on the fabric:
// radix-partition both tables to DRAM on their hash keys (P parallel
// fig. 7b pipelines), then for each partition pair build an on-chip hash
// table from the build side and probe it with the probe side (figs. 6a,
// 7a). Inputs are [key, val] records; matches are [key, probeVal,
// buildVal]. The returned Result sums all phases.
func HashJoin(hbm *dram.HBM, buildSide, probeSide []record.Rec, opt HashJoinOptions) ([]record.Rec, Result, error) {
	if hbm == nil {
		hbm = defaultHBM()
	}
	opt.fill(len(buildSide))
	P := opt.Pipelines
	partsPer := opt.Parts / uint32(P)
	var total Result

	// --- Phase 1: radix-partition both sides, P pipelines each ---
	// The splitter network routes records to pipelines on the low hash
	// bits; each pipeline then partitions on the next bits.
	shift := uint(0)
	for v := 1; v < P; v <<= 1 {
		shift++
	}
	// split counts each pipeline's share first, so every group is
	// allocated once at its exact size.
	split := func(recs []record.Rec) [][]record.Rec {
		counts := make([]int, P)
		for i := range recs {
			counts[Hash32(recs[i].Get(0))&uint32(P-1)]++
		}
		out := make([][]record.Rec, P)
		for k := range out {
			out[k] = make([]record.Rec, 0, counts[k])
		}
		for _, r := range recs {
			k := int(Hash32(r.Get(0)) & uint32(P-1))
			out[k] = append(out[k], r)
		}
		return out
	}

	partitionSide := func(side string, recs []record.Rec, arenaOff uint32) ([]*PartitionSet, error) {
		g := fabric.NewGraph()
		g.AttachHBM(hbm)
		g.Workers = opt.Tuning.Parallelism
		groups := split(recs)
		sets := make([]*PartitionSet, P)
		sinks := make([]*fabric.Sink, P)
		// One uniform arena stride for all pipelines (sized for the whole
		// input): per-pipeline strides would differ with group sizes and
		// overlap, cross-linking block chains.
		proto := DefaultPartitionParams(len(recs)+P, partsPer, 2)
		arena := proto.MaxBlocks * (1 + proto.BlockRecs*proto.RecWords)
		for k := 0; k < P; k++ {
			pp := proto
			pp.HashShift = shift
			pp.Tuning = opt.Tuning
			pp.BlockBase = RegionPartBlocks + arenaOff + uint32(k)*arena
			ps, snk, err := PartitionInto(g, fmt.Sprintf("prt.%s%d", side, k), pp, InRecs(groups[k]))
			if err != nil {
				return nil, err
			}
			sets[k], sinks[k] = ps, snk
		}
		res, err := runGraph(g, budgetFor(len(recs))*4)
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", side, err)
		}
		accumulate(&total, res)
		for k := 0; k < P; k++ {
			if sinks[k].Count() != len(groups[k]) {
				return nil, fmt.Errorf("partition %s pipeline %d: stored %d of %d", side, k, sinks[k].Count(), len(groups[k]))
			}
		}
		FinishPartition(sets...)
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

	// --- Phase 2: per partition pair, build then probe; P pairs at a
	// time share the fabric ---
	var matches []record.Rec
	for r := uint32(0); r < partsPer; r++ {
		// Build round.
		gb := fabric.NewGraph()
		gb.AttachHBM(hbm)
		gb.Workers = opt.Tuning.Parallelism
		tables := make([]*HashTable, P)
		bsinks := make([]*fabric.Sink, P)
		counts := make([]int, P)
		for k := 0; k < P; k++ {
			ext := buildSets[k].Extents(r)
			in := InExtents(ext, 2)
			counts[k] = in.N
			hp := DefaultHashTableParams(in.N + 1)
			hp.OverflowBase = RegionHashOverflow + uint32(k)*(1<<22)
			hp.Tuning = opt.Tuning
			ht, snk, err := BuildHashTableInto(gb, fmt.Sprintf("bld.%d", k), hp, in)
			if err != nil {
				return nil, total, err
			}
			tables[k], bsinks[k] = ht, snk
		}
		res, err := runGraph(gb, budgetFor(sumInts(counts))*4)
		if err != nil {
			return nil, total, fmt.Errorf("build round %d: %w", r, err)
		}
		accumulate(&total, res)
		for k := 0; k < P; k++ {
			if bsinks[k].Count() != counts[k] {
				return nil, total, fmt.Errorf("build round %d pipeline %d: %d of %d", r, k, bsinks[k].Count(), counts[k])
			}
		}

		// Probe round.
		gp := fabric.NewGraph()
		gp.AttachHBM(hbm)
		gp.Workers = opt.Tuning.Parallelism
		psinks := make([]*fabric.Sink, P)
		pn := 0
		for k := 0; k < P; k++ {
			ext := probeSets[k].Extents(r)
			in := InExtents(ext, 2)
			pn += in.N
			psinks[k] = ProbeHashTableInto(gp, fmt.Sprintf("prb.%d", k), tables[k], in,
				ProbeOptions{FirstMatchOnly: opt.FirstMatchOnly})
		}
		res, err = runGraph(gp, budgetFor(pn)*4)
		if err != nil {
			return nil, total, fmt.Errorf("probe round %d: %w", r, err)
		}
		accumulate(&total, res)
		n := 0
		for k := 0; k < P; k++ {
			n += psinks[k].Count()
		}
		matches = slices.Grow(matches, n)
		for k := 0; k < P; k++ {
			matches = append(matches, psinks[k].Records()...)
		}
	}
	return matches, total, nil
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
