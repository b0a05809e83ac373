package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"aurochs/internal/dram"
)

func buildRandom(t *testing.T, n int, keyMod uint32, seed int64) (*Tree, []KV) {
	t.Helper()
	h := dram.New(dram.DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: rng.Uint32() % keyMod, Val: uint32(i)}
	}
	tr := Build(h, 4096, append([]KV(nil), items...))
	return tr, items
}

func TestBuildAndLookup(t *testing.T) {
	tr, items := buildRandom(t, 5000, 2000, 1)
	want := map[uint32][]uint32{}
	for _, kv := range items {
		want[kv.Key] = append(want[kv.Key], kv.Val)
	}
	for k, vs := range want {
		got := tr.Lookup(k)
		if len(got) != len(vs) {
			t.Fatalf("key %d: %d values, want %d", k, len(got), len(vs))
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("key %d: %v want %v", k, got, vs)
			}
		}
	}
	if got := tr.Lookup(2001); got != nil {
		t.Errorf("absent key returned %v", got)
	}
}

func TestRangeMatchesReference(t *testing.T) {
	tr, items := buildRandom(t, 3000, 10000, 2)
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	if err := quick.Check(func(a, b uint32) bool {
		lo, hi := a%11000, b%11000
		if lo > hi {
			lo, hi = hi, lo
		}
		got := tr.Range(lo, hi)
		want := 0
		for _, kv := range items {
			if kv.Key >= lo && kv.Key <= hi {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key > got[i].Key {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	empty := Build(h, 0, nil)
	if empty.Range(0, ^uint32(0)) != nil || empty.Lookup(5) != nil {
		t.Error("empty tree returned entries")
	}
	one := Build(h, 4096, []KV{{Key: 7, Val: 9}})
	if got := one.Lookup(7); len(got) != 1 || got[0] != 9 {
		t.Errorf("single: %v", got)
	}
	if one.Height != 1 || one.Nodes != 1 {
		t.Errorf("single-entry tree: height=%d nodes=%d", one.Height, one.Nodes)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	for _, n := range []int{16, 256, 4096, 65536} {
		h := dram.New(dram.DefaultConfig())
		items := make([]KV, n)
		for i := range items {
			items[i] = KV{Key: uint32(i), Val: uint32(i)}
		}
		tr := Build(h, 0, items)
		wantH := 1
		for c := (n + Fanout - 1) / Fanout; c > 1; c = (c + Fanout - 1) / Fanout {
			wantH++
		}
		if n <= Fanout {
			wantH = 1
		}
		if tr.Height != wantH {
			t.Errorf("n=%d: height %d, want %d", n, tr.Height, wantH)
		}
		// Every key present.
		for _, k := range []uint32{0, uint32(n / 2), uint32(n - 1)} {
			if len(tr.Lookup(k)) != 1 {
				t.Errorf("n=%d: key %d missing", n, k)
			}
		}
	}
}

func TestUnsortedInputSorted(t *testing.T) {
	h := dram.New(dram.DefaultConfig())
	tr := Build(h, 0, []KV{{5, 50}, {1, 10}, {3, 30}, {2, 20}, {4, 40}})
	items := tr.Items()
	for i := 1; i < len(items); i++ {
		if items[i-1].Key > items[i].Key {
			t.Fatal("leaves not sorted")
		}
	}
	if tr.MinKey != 1 || tr.MaxKey != 5 {
		t.Errorf("bounds %d..%d", tr.MinKey, tr.MaxKey)
	}
}

func TestItemsRoundTrip(t *testing.T) {
	tr, items := buildRandom(t, 1000, 1<<30, 3)
	got := tr.Items()
	if len(got) != len(items) {
		t.Fatalf("items: %d want %d", len(got), len(items))
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	for i := range got {
		if got[i].Key != items[i].Key {
			t.Fatalf("item %d key %d want %d", i, got[i].Key, items[i].Key)
		}
	}
}

// Duplicate runs far longer than a node: every (key, val) must still be
// found, and the stable sort keeps equal keys in input order, so each
// key's values come back in the order they were given.
func TestBuildDuplicateHeavy(t *testing.T) {
	for _, keyMod := range []uint32{1, 3, 7, 50} {
		tr, items := buildRandom(t, 6000, keyMod, int64(keyMod))
		want := map[uint32][]uint32{}
		for _, kv := range items {
			want[kv.Key] = append(want[kv.Key], kv.Val)
		}
		for k, vs := range want {
			got := tr.Lookup(k)
			if len(got) != len(vs) {
				t.Fatalf("keyMod %d, key %d: %d values, want %d", keyMod, k, len(got), len(vs))
			}
			for i := range vs {
				if got[i] != vs[i] {
					t.Fatalf("keyMod %d, key %d: value %d is %d, want %d (input order)", keyMod, k, i, got[i], vs[i])
				}
			}
		}
		if all := tr.Range(0, ^uint32(0)); len(all) != len(items) {
			t.Fatalf("keyMod %d: full range found %d of %d entries", keyMod, len(all), len(items))
		}
	}
}

// sortByKey is a stable sort on every key width, including keys that
// differ only in their high bytes.
func TestSortByKeyStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := make([]KV, 20000)
	for i := range items {
		items[i] = KV{Key: rng.Uint32() & 0xff0000ff, Val: uint32(i)}
	}
	want := append([]KV(nil), items...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	sortByKey(items)
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("entry %d: %v, want %v", i, items[i], want[i])
		}
	}
}
