package core

import (
	"fmt"

	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/sim"
	"aurochs/internal/spad"
)

// Radix partitioning (paper §IV-A, fig. 7b): records scatter into dense
// per-partition block lists in DRAM, with on-chip metadata tracking each
// partition's head block and fill count. A fused {block pointer | count}
// scratchpad word makes the fetch-and-add ticket atomic with the head
// lookup; the thread holding ticket == BlockRecs allocates and prepends a
// fresh block, while later tickets recirculate until the count resets.
//
// Packed metadata word: ptr in the high 18 bits, count in the low 14.
const (
	partCountBits = 14
	partCountMask = (1 << partCountBits) - 1
	// NilBlock terminates a partition's block list.
	NilBlock = (1 << 18) - 1
)

// PartitionParams sizes a radix partitioning pass.
type PartitionParams struct {
	// Parts is the partition count (power of two). The paper chooses it
	// so the expected partition size matches scratchpad capacity.
	Parts uint32
	// BlockRecs is records per DRAM block; blocks are the dense unit
	// that masks memory latency on readback.
	BlockRecs uint32
	// RecWords is the words per record (key + payload).
	RecWords uint32
	// BlockBase is the DRAM word address where blocks are allocated.
	BlockBase uint32
	// MaxBlocks bounds the block arena.
	MaxBlocks uint32
	// HashShift selects which hash bits pick the partition; pipelines at
	// different fan-out levels use disjoint bit ranges.
	HashShift uint
	// Tuning carries ablation knobs.
	Tuning Tuning
}

// DefaultPartitionParams sizes partitioning of n records of recWords words
// into parts partitions.
func DefaultPartitionParams(n int, parts uint32, recWords uint32) PartitionParams {
	blockRecs := uint32(64)
	maxBlocks := uint32(n)/blockRecs + 2*parts + 16
	return PartitionParams{
		Parts:     parts,
		BlockRecs: blockRecs,
		RecWords:  recWords,
		BlockBase: 1 << 27,
		MaxBlocks: maxBlocks,
	}
}

// PartitionSet is the result of a partitioning pass: the metadata
// scratchpad plus the DRAM block arena.
type PartitionSet struct {
	Params PartitionParams
	Meta   *spad.Mem
	HBM    *dram.HBM
	// Blocks is the number of blocks allocated.
	Blocks   uint32
	allocMem *spad.Mem
}

// blockWords is the DRAM footprint of one block: next pointer + records.
func (ps *PartitionSet) blockWords() uint32 {
	return 1 + ps.Params.BlockRecs*ps.Params.RecWords
}

// blockAddr returns the word address of block blk.
func (ps *PartitionSet) blockAddr(blk uint32) uint32 {
	return ps.Params.BlockBase + blk*ps.blockWords()
}

// PartitionOf returns the partition a key scatters to.
func (ps *PartitionSet) PartitionOf(key uint32) uint32 {
	return (Hash32(key) >> ps.Params.HashShift) & (ps.Params.Parts - 1)
}

// Extents returns the dense DRAM extents of partition p, newest block
// first, clipping the head block to its fill count. Reading them through a
// DRAMScan is the paper's "dense format" readback that avoids sparse reads
// when building hash tables from partitions.
func (ps *PartitionSet) Extents(p uint32) []fabric.Extent {
	packed := ps.Meta.Read(p)
	blk := packed >> partCountBits
	cnt := packed & partCountMask
	var out []fabric.Extent
	first := true
	for blk != NilBlock {
		if uint32(len(out)) > ps.Params.MaxBlocks {
			panic("core: partition block chain exceeds arena — chains crossed or corrupted")
		}
		n := ps.Params.BlockRecs
		if first {
			n = cnt
			first = false
		}
		out = append(out, fabric.Extent{
			Addr:  ps.blockAddr(blk) + 1,
			Words: int(n * ps.Params.RecWords),
		})
		blk = ps.HBM.ReadWord(ps.blockAddr(blk))
	}
	return out
}

// ReadPartition returns partition p's records functionally.
func (ps *PartitionSet) ReadPartition(p uint32) []record.Rec {
	var out []record.Rec
	for _, ext := range ps.Extents(p) {
		words := ps.HBM.SnapshotWords(ext.Addr, ext.Words)
		for i := 0; i+int(ps.Params.RecWords) <= len(words); i += int(ps.Params.RecWords) {
			var r record.Rec
			for k := 0; k < int(ps.Params.RecWords); k++ {
				r = r.Append(words[i+k])
			}
			out = append(out, r)
		}
	}
	return out
}

// Count returns the number of records in partition p.
func (ps *PartitionSet) Count(p uint32) int {
	n := 0
	for _, e := range ps.Extents(p) {
		n += e.Words / int(ps.Params.RecWords)
	}
	return n
}

// Partition-thread schema: input fields [0..RecWords), then part, cnt, ptr,
// newBlk appended.
func partFields(recWords uint32) (part, cnt, ptr, newBlk int) {
	return int(recWords), int(recWords) + 1, int(recWords) + 2, int(recWords) + 3
}

// partRecSchema names the external record layout: the key plus payload
// words.
func partRecSchema(recWords uint32) *record.Schema {
	names := make([]string, recWords)
	names[0] = "key"
	for i := 1; i < int(recWords); i++ {
		names[i] = fmt.Sprintf("v%d", i)
	}
	return record.NewSchema(names...)
}

// Partition runs the fig. 7b pipeline over input (records of
// p.RecWords 32-bit fields, field 0 the key). hbm may be nil.
func Partition(p PartitionParams, input []record.Rec, hbm *dram.HBM) (*PartitionSet, Result, error) {
	if hbm == nil {
		hbm = defaultHBM()
	}
	g := fabric.NewGraph()
	g.AttachHBM(hbm)
	g.Workers = p.Tuning.Parallelism
	ps, snk, err := PartitionInto(g, "prt", p, InRecs(input))
	if err != nil {
		return nil, Result{}, err
	}
	res, err := runGraph(g, budgetFor(len(input))*4)
	if err != nil {
		return nil, res, fmt.Errorf("partition: %w", err)
	}
	if snk.Count() != len(input) {
		return nil, res, fmt.Errorf("partition: stored %d of %d", snk.Count(), len(input))
	}
	ps.finish()
	return ps, res, nil
}

// PartitionInto wires one partitioning pipeline into an existing graph
// under a name prefix (stream-level parallelism instantiates several, each
// owning a disjoint block arena). Call (*PartitionSet).finish via
// FinishPartition after the graph runs.
func PartitionInto(g *fabric.Graph, pf string, p PartitionParams, input StreamIn) (*PartitionSet, *fabric.Sink, error) {
	if p.Parts == 0 || p.Parts&(p.Parts-1) != 0 {
		return nil, nil, fmt.Errorf("core: parts must be a power of two, got %d", p.Parts)
	}
	if p.BlockRecs >= partCountMask/2 {
		return nil, nil, fmt.Errorf("core: BlockRecs %d too large for the packed count field", p.BlockRecs)
	}
	fPart, fCnt, fPtr, fNew := partFields(p.RecWords)

	// Thread schemas: external records widen with the partition id at the
	// hash stage, the {cnt, ptr} ticket at the meta FAA, and the fresh
	// block index on the allocation path.
	inS := partRecSchema(p.RecWords)
	partS := g.Widen(inS, "part")
	metaS := g.Widen(partS, "cnt", "ptr")
	fullS := g.Widen(metaS, "newBlk")

	meta := spad.NewMem(16, int(p.Parts+15)/16, 0)
	meta.Fill(NilBlock<<partCountBits | p.BlockRecs) // head=nil, count=full ⇒ first thread allocates
	allocMem := spad.NewMem(16, 1, 0)                // global block allocation counter

	ps := &PartitionSet{Params: p, Meta: meta, HBM: g.HBM, allocMem: allocMem}

	src := g.Link(pf + ".src")
	input.attach(g, pf+".in", src, inS)

	// Loop entry: all records retry through the FAA until stored. The loop
	// body only guarantees the external prefix — recirculated records carry
	// stale ticket fields that the next FAA pass overwrites.
	ctl := fabric.NewLoopCtl()
	body := g.Link(pf + ".body")
	recircJoin := g.Link(pf + ".recircJoin")
	g.Add(fabric.NewLoopMerge(pf+".entry", recircJoin, src, body, ctl).Typed(metaS, inS, inS))

	// Hash to partition, then fused FAA on the packed {ptr|count} word.
	hashed := g.Link(pf + ".hashed")
	g.Add(fabric.NewMap(pf+".hash", func(r *record.Rec) {
		part := (Hash32(r.Get(0)) >> p.HashShift) & (p.Parts - 1)
		r.Put(fPart, part)
	}, body, hashed).Cyclic().Typed(inS, partS))

	// A saturating fetch-and-add (the RMW ALU's combiner): retry threads
	// hammering a stalled partition stop incrementing once the count field
	// is past every useful ticket, so the count can never creep into the
	// pointer bits however long an allocation takes. Every thread applies
	// the identical monotone function, so applications commute — the final
	// metadata word is independent of thread order.
	satFAA := &spad.CombineFn{
		Name:  "saturating-faa",
		Class: sim.ReorderCommutative,
		Fn: func(cur, _ uint32) uint32 {
			if cur&partCountMask >= 2*p.BlockRecs {
				return cur
			}
			return cur + 1
		},
	}
	faaOut := g.Link(pf + ".faaOut")
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".meta"), meta, spad.Spec{
		Op:       spad.OpModify,
		Addr:     func(r *record.Rec) uint32 { return r.Get(fPart) },
		Combiner: satFAA,
		In:       partS,
		Out:      metaS,
		Apply: func(r *record.Rec, resp []uint32) bool {
			cnt := resp[0] & partCountMask
			if cnt > p.BlockRecs+partCountMask/2 {
				// The retry storm incremented the packed count close to
				// overflowing into the pointer bits; a correctly sized
				// field never gets here.
				panic("core: partition count field overflow")
			}
			r.Put(fCnt, cnt)
			r.Put(fPtr, resp[0]>>partCountBits)
			return true
		},
	}, hashed, faaOut, g.Stats()))

	// Route on the ticket: store / allocate / retry.
	storeIn := g.Link(pf + ".storeIn")
	allocIn := g.Link(pf + ".allocIn")
	retry := g.Link(pf + ".retry")
	g.Add(fabric.NewFilter(pf+".route", func(r *record.Rec) int {
		cnt := r.Get(fCnt)
		switch {
		case cnt < p.BlockRecs:
			return 0 // free slot in the head block
		case cnt == p.BlockRecs:
			return 1 // first to see it full: allocate
		default:
			return 2 // allocation in progress: recirculate
		}
	}, faaOut, []fabric.Output{
		{Link: storeIn, Exit: true},
		{Link: allocIn},
		{Link: retry, NoEOS: true},
	}, ctl).Cyclic().Typed(metaS))

	// Store path (exits the loop): scatter the record into its block slot.
	// Each thread's {ptr, cnt} ticket names a slot no other thread holds,
	// so the scatters are disjoint and reorder freely.
	stored := g.Link(pf + ".stored")
	fabric.NewDRAMNode(g, pf+".store", spad.Spec{
		Op:    spad.OpWrite,
		Width: int(p.RecWords),
		Addr: func(r *record.Rec) uint32 {
			return ps.blockAddr(r.Get(fPtr)) + 1 + r.Get(fCnt)*p.RecWords
		},
		Data:          func(r *record.Rec, i int) uint32 { return r.Get(i) },
		In:            metaS,
		Out:           metaS,
		DisjointAddrs: true,
	}, storeIn, stored)
	snk := fabric.NewSink(pf+".sink", stored).Typed(metaS).Reserve(input.N)
	g.Add(snk)

	// Allocation path (stays in the loop): grab a block index, link it to
	// the old head, publish {newBlk|0}, then retry.
	allocFaa := g.Link(pf + ".allocFaa")
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".alloc"), allocMem, spad.Spec{
		Op:   spad.OpFAA,
		Addr: func(*record.Rec) uint32 { return 0 },
		Data: func(*record.Rec, int) uint32 { return 1 },
		Apply: func(r *record.Rec, resp []uint32) bool {
			if resp[0] >= p.MaxBlocks {
				panic("core: partition block arena exhausted")
			}
			r.Put(fNew, resp[0])
			return true
		},
		In:  metaS,
		Out: fullS,
	}, allocIn, allocFaa, g.Stats()))
	linked := g.Link(pf + ".linked")
	// The allocator thread owns its fresh block outright until publish, so
	// the next-pointer writes land on disjoint addresses.
	fabric.NewDRAMNode(g, pf+".link", spad.Spec{
		Op:            spad.OpWrite,
		Width:         1,
		Addr:          func(r *record.Rec) uint32 { return ps.blockAddr(r.Get(fNew)) },
		Data:          func(r *record.Rec, _ int) uint32 { return r.Get(fPtr) },
		In:            fullS,
		Out:           fullS,
		DisjointAddrs: true,
	}, allocFaa, linked)
	published := g.Link(pf + ".published")
	g.Add(spad.NewTile(p.Tuning.spadConfig(pf+".publish"), meta, spad.Spec{
		Op:    spad.OpWrite,
		Width: 1,
		Addr:  func(r *record.Rec) uint32 { return r.Get(fPart) },
		Data:  func(r *record.Rec, _ int) uint32 { return r.Get(fNew) << partCountBits },
		In:    fullS,
		Out:   fullS,
		// Exactly one thread per partition generation holds ticket ==
		// BlockRecs and publishes; the next publish to the same word only
		// happens after this one is observed (the count must fill again),
		// so same-address writes are causally ordered through the meta FAA.
		OrderWaiver: "single publisher per partition generation, serialized by the meta FAA ticket",
	}, linked, published, g.Stats()))

	// Rejoin both recirculating paths.
	g.Add(fabric.NewMerge(pf+".recirc", published, retry, recircJoin).Cyclic().Typed(metaS, metaS, metaS))

	return ps, snk, nil
}

// finish records post-run facts (the allocated block count).
func (ps *PartitionSet) finish() {
	ps.Blocks = ps.allocMem.Read(0)
}

// FinishPartition finalizes partition sets after a shared graph run.
func FinishPartition(sets ...*PartitionSet) {
	for _, ps := range sets {
		ps.finish()
	}
}
