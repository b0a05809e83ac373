// Package btree implements the paper's immutable, bulk-loaded B-tree
// (§IV-B, fig. 8): sorted leaves packed into a flat DRAM array, internal
// levels built bottom-up in linear time. Immutability is the point — the
// tree is written once by a bulk load and then shared by concurrent readers
// with no locking; updates happen by building new trees inside an LSM
// (package lsm).
package btree

import (
	"fmt"
	"sort"

	"aurochs/internal/dram"
)

// Fanout is the number of entries per node. 16 keys + 16 values plus a
// header word keeps a node at 132 B — two to three HBM bursts, the block
// size that hides DRAM latency during descent (paper §III-A).
const Fanout = 16

// NodeWords is the DRAM footprint of one node:
// word 0: nkeys<<1 | isLeaf; words 1..Fanout: keys; words Fanout+1..2*Fanout: vals.
const NodeWords = 1 + 2*Fanout

// KV is one indexed entry.
type KV struct {
	Key uint32
	Val uint32
}

// Tree is an immutable B-tree materialized in DRAM.
type Tree struct {
	HBM  *dram.HBM
	Base uint32 // word address of node 0
	// Root is the root node index; Nodes the total node count.
	Root   uint32
	Nodes  uint32
	Height int
	// Len is the number of key-value entries.
	Len int
	// MinKey/MaxKey bound the keys (used by LSM time pruning).
	MinKey, MaxKey uint32
	// LeafCount is the number of level-0 nodes (leaves are nodes
	// 0..LeafCount-1, contiguous and in key order).
	LeafCount uint32
}

// NodeAddr returns the word address of node idx.
func (t *Tree) NodeAddr(idx uint32) uint32 {
	return t.Base + idx*NodeWords
}

// WordsUsed returns the DRAM words the tree occupies.
func (t *Tree) WordsUsed() uint32 { return t.Nodes * NodeWords }

// Build bulk-loads items into a new tree at base. Items are sorted by key
// in place if not already sorted; duplicate keys are allowed, and the sort
// is stable, so entries with equal keys keep their input order. An empty
// items slice yields a valid empty tree.
func Build(h *dram.HBM, base uint32, items []KV) *Tree {
	sortByKey(items)
	t := &Tree{HBM: h, Base: base, Len: len(items)}
	if len(items) == 0 {
		// A single empty leaf keeps readers branch-free.
		h.WriteWord(base, 0|1)
		t.Nodes, t.LeafCount, t.Root, t.Height = 1, 1, 0, 1
		return t
	}
	t.MinKey = items[0].Key
	t.MaxKey = items[len(items)-1].Key

	writeNode := func(idx uint32, isLeaf bool, keys, vals []uint32) {
		a := t.NodeAddr(idx)
		flag := uint32(0)
		if isLeaf {
			flag = 1
		}
		h.WriteWord(a, uint32(len(keys))<<1|flag)
		for i := 0; i < Fanout; i++ {
			var k, v uint32
			if i < len(keys) {
				k, v = keys[i], vals[i]
			}
			h.WriteWord(a+1+uint32(i), k)
			h.WriteWord(a+1+Fanout+uint32(i), v)
		}
	}

	// Level 0: leaves.
	next := uint32(0)
	var level []uint32 // node indices of current level
	var levelKeys []uint32
	for i := 0; i < len(items); i += Fanout {
		end := i + Fanout
		if end > len(items) {
			end = len(items)
		}
		keys := make([]uint32, 0, Fanout)
		vals := make([]uint32, 0, Fanout)
		for _, kv := range items[i:end] {
			keys = append(keys, kv.Key)
			vals = append(vals, kv.Val)
		}
		writeNode(next, true, keys, vals)
		level = append(level, next)
		levelKeys = append(levelKeys, keys[0])
		next++
	}
	t.LeafCount = next
	t.Height = 1

	// Internal levels: a streaming reduction over the previous level.
	for len(level) > 1 {
		var up []uint32
		var upKeys []uint32
		for i := 0; i < len(level); i += Fanout {
			end := i + Fanout
			if end > len(level) {
				end = len(level)
			}
			writeNode(next, false, levelKeys[i:end], level[i:end])
			up = append(up, next)
			upKeys = append(upKeys, levelKeys[i])
			next++
		}
		level, levelKeys = up, upKeys
		t.Height++
	}
	t.Root = level[0]
	t.Nodes = next
	return t
}

// sortByKey sorts items by Key with a stable least-significant-digit radix
// sort: four counting passes of one byte each, skipping any byte on which
// every key agrees. Already sorted input is left untouched.
func sortByKey(items []KV) {
	sorted := true
	for i := 1; i < len(items); i++ {
		if items[i].Key < items[i-1].Key {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	src, dst := items, make([]KV, len(items))
	for shift := 0; shift < 32; shift += 8 {
		var count [256]int
		for _, kv := range src {
			count[kv.Key>>shift&0xff]++
		}
		if count[src[0].Key>>shift&0xff] == len(src) {
			continue // every key has this byte: the pass would not move anything
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, kv := range src {
			b := kv.Key >> shift & 0xff
			dst[count[b]] = kv
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// node reads a node functionally.
func (t *Tree) node(idx uint32) (isLeaf bool, keys, vals []uint32) {
	a := t.NodeAddr(idx)
	hdr := t.HBM.ReadWord(a)
	n := int(hdr >> 1)
	isLeaf = hdr&1 == 1
	keys = make([]uint32, n)
	vals = make([]uint32, n)
	for i := 0; i < n; i++ {
		keys[i] = t.HBM.ReadWord(a + 1 + uint32(i))
		vals[i] = t.HBM.ReadWord(a + 1 + Fanout + uint32(i))
	}
	return isLeaf, keys, vals
}

// childFor returns the child slot to descend into when looking for the
// first entry >= key: the last child whose separator is strictly below key.
// Duplicates of key may spill backward across a leaf boundary (the previous
// leaf can end with copies of key), so descending on "separator < key"
// rather than "separator <= key" is what keeps duplicate runs reachable;
// the forward leaf scan skips the few smaller keys it lands on.
func childFor(keys []uint32, key uint32) int {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// Lookup returns every value stored under key (reference implementation).
func (t *Tree) Lookup(key uint32) []uint32 {
	var out []uint32
	for _, kv := range t.Range(key, key) {
		out = append(out, kv.Val)
	}
	return out
}

// Range returns all entries with lo <= key <= hi in key order. It descends
// to the first candidate leaf, then scans contiguous leaves — the dense
// layout bulk loading buys.
func (t *Tree) Range(lo, hi uint32) []KV {
	if t.Len == 0 || lo > hi || hi < t.MinKey || lo > t.MaxKey {
		return nil
	}
	idx := t.Root
	for {
		isLeaf, keys, vals := t.node(idx)
		if isLeaf {
			break
		}
		idx = vals[childFor(keys, lo)]
	}
	var out []KV
	for leaf := idx; leaf < t.LeafCount; leaf++ {
		isLeaf, keys, vals := t.node(leaf)
		if !isLeaf {
			panic(fmt.Sprintf("btree: node %d expected leaf", leaf))
		}
		for i, k := range keys {
			if k > hi {
				return out
			}
			if k >= lo {
				out = append(out, KV{k, vals[i]})
			}
		}
	}
	return out
}

// Items streams every entry in key order (used by LSM merges).
func (t *Tree) Items() []KV {
	if t.Len == 0 {
		return nil
	}
	out := make([]KV, 0, t.Len)
	for leaf := uint32(0); leaf < t.LeafCount; leaf++ {
		_, keys, vals := t.node(leaf)
		for i := range keys {
			out = append(out, KV{keys[i], vals[i]})
		}
	}
	return out
}
