package main

import (
	"errors"
	"fmt"
	"sort"

	"aurochs/internal/core"
	"aurochs/internal/index/btree"
)

// selfTest shows that the output checks can fail. Small join, aggregate
// and range-walk outputs must verify clean, and the same outputs with one
// match dropped, one group count off by one, or one hit dropped must each
// fail at least one operation. Every run calls it first.
func selfTest() error {
	build, probe := joinInputs(7, 512)
	matches, _, err := core.HashJoin(newHBM(), build, probe, joinOptions(1))
	if err != nil {
		return err
	}
	if f := verifyJoin(build, probe, matches); f != 0 {
		return fmt.Errorf("join: %d probe rows fail on the kernel's own output", f)
	}
	if verifyJoin(build, probe, matches[1:]) == 0 {
		return errors.New("join: a dropped match goes unnoticed")
	}

	keys := aggInputs(7, 4096)
	agg, _, err := core.HashAggregate(aggParams(1), keys, newHBM())
	if err != nil {
		return err
	}
	groups := agg.Groups()
	if f := verifyGroups(keys, groups); f != 0 {
		return fmt.Errorf("aggregate: %d groups fail on the kernel's own output", f)
	}
	first := ^uint32(0)
	for k := range groups {
		first = min(first, k)
	}
	groups[first]++
	if verifyGroups(keys, groups) == 0 {
		return errors.New("aggregate: a group count off by one goes unnoticed")
	}

	items, _ := btreeInputs(7, 4096, 0)
	tree := btree.Build(newHBM(), core.RegionTables, items)
	queries := make([]core.RangeQuery, 64)
	for i := range queries {
		lo := uint32(i) << 26
		queries[i] = core.RangeQuery{Lo: lo, Hi: lo + 1<<22, Tag: uint32(i)}
	}
	hits, _, err := core.BTreeSearchP(tree, queries, core.Tuning{Parallelism: 1}, btreePipes)
	if err != nil {
		return err
	}
	if len(hits) == 0 {
		return errors.New("btree: the self-test queries found nothing")
	}
	if f := verifyRanges(items, queries, hits); f != 0 {
		return fmt.Errorf("btree: %d queries fail on the kernel's own output", f)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].Get(2) < hits[j].Get(2) })
	if verifyRanges(items, queries, hits[1:]) == 0 {
		return errors.New("btree: a dropped hit goes unnoticed")
	}
	return nil
}
