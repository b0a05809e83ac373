package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/index/btree"
	"aurochs/internal/index/rtree"
	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// treeWalkPin is the observable outcome of one fixed-seed tree-walk run:
// simulated cycles, DRAM traffic, and FNV-64a digests of the canonical
// output records and of the counter set.
type treeWalkPin struct {
	cycles, dramBytes int64
	outputs           int
	outDigest         uint64
	statsDigest       uint64
}

func digestRecs(recs []record.Rec) uint64 {
	h := fnv.New64a()
	for _, r := range canon(recs) {
		for f := 0; f < record.MaxFields; f++ {
			fmt.Fprintf(h, "%d,", r.F[f])
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// pinnedStats renders the counter set one "name=value" line per counter.
// The spatial join's fetch counter is named ".fetches" like every tree
// walk's; the two-block node it once ran on counted the same events under
// ".fetch_pairs", so that suffix is folded in to keep one golden value.
func pinnedStats(st *sim.Stats) string {
	var lines []string
	for k, v := range st.Snapshot() { // lint:maprange-ok — sorted below
		if strings.HasSuffix(k, ".fetch_pairs") {
			k = strings.TrimSuffix(k, ".fetch_pairs") + ".fetches"
		}
		lines = append(lines, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func pinOf(res Result, recs []record.Rec) (treeWalkPin, string) {
	stats := pinnedStats(res.Stats)
	h := fnv.New64a()
	h.Write([]byte(stats))
	return treeWalkPin{
		cycles: res.Cycles, dramBytes: res.DRAMBytes,
		outputs: len(recs), outDigest: digestRecs(recs), statsDigest: h.Sum64(),
	}, stats
}

func checkPin(t *testing.T, name string, got, want treeWalkPin, stats string) {
	t.Helper()
	if got != want {
		t.Errorf("%s drifted from its pinned execution:\n got  %+v\n want %+v\nstats:\n%s", name, got, want, stats)
	}
}

// TestTreeWalkPinned pins a fixed-seed B-tree range search (single-block
// expand, four pipelines) and an R-tree spatial join (two-block expand):
// cycles, DRAM bytes, outputs and the full counter set must stay exactly
// as recorded, so a change to the expand node or the run loop that moves
// any of them is caught even where serial and parallel kernels agree.
func TestTreeWalkPinned(t *testing.T) {
	t.Run("btree", func(t *testing.T) {
		h := dram.New(dram.DefaultConfig())
		items := make([]btree.KV, 1<<13)
		for i := range items {
			items[i] = btree.KV{Key: uint32(i*7 + 3), Val: uint32(i)}
		}
		tr := btree.Build(h, RegionTables, items)
		queries := make([]RangeQuery, 300)
		for i := range queries {
			lo := uint32((i * 7919) % (7 << 13))
			queries[i] = RangeQuery{Lo: lo, Hi: lo + 40, Tag: uint32(i)}
		}
		hits, res, err := BTreeSearchP(tr, queries, Tuning{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, stats := pinOf(res, hits)
		checkPin(t, "BTreeSearchP", got, treeWalkPin{
			cycles: 860, dramBytes: 252672, outputs: 1757,
			outDigest: 9347586588717865136, statsDigest: 8097245516134797401,
		}, stats)
	})
	// The spatial join runs twice: on the default HBM, and on one with
	// 3-deep channel queues, where node fetches are refused — a pair's
	// second leg included, after its first leg was accepted.
	for _, tc := range []struct {
		name string
		cfg  dram.Config
		want treeWalkPin
	}{
		{"spatial-join", dram.DefaultConfig(), treeWalkPin{
			cycles: 4454, dramBytes: 713664, outputs: 906,
			outDigest: 9531060006828451271, statsDigest: 6289532667535525943,
		}},
		{"spatial-join-shallow-queue", shallowQueue(), treeWalkPin{
			cycles: 4381, dramBytes: 702528, outputs: 906,
			outDigest: 9531060006828451271, statsDigest: 16136517317901549930,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := dram.New(tc.cfg)
			mk := func(base uint32, n int, seed int64) *rtree.Tree {
				rng := rand.New(rand.NewSource(seed))
				entries := make([]rtree.Entry, n)
				for i := range entries {
					x, y := uint32(rng.Intn(4000)), uint32(rng.Intn(4000))
					entries[i] = rtree.Entry{Rect: rtree.Rect{MinX: x, MinY: y, MaxX: x + 40, MaxY: y + 40}, ID: uint32(i)}
				}
				return rtree.Build(h, base, entries, 4096)
			}
			ta := mk(RegionTables, 1500, 1)
			tb := mk(RegionTables+1<<22, 1500, 99)
			pairs, res, err := RTreeSpatialJoin(ta, tb, Tuning{})
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]record.Rec, len(pairs))
			for i, p := range pairs {
				recs[i] = record.Make(p.A, p.B)
			}
			got, stats := pinOf(res, recs)
			checkPin(t, "RTreeSpatialJoin", got, tc.want, stats)
		})
	}
}

func shallowQueue() dram.Config {
	cfg := dram.DefaultConfig()
	cfg.QueueDepth = 3
	return cfg
}
