package main

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSelfTest runs the per-run self-test: one dropped join match, one
// group count off by one and one dropped B-tree hit must each fail at
// least one operation, so failed_frac rises above zero.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinReplay checks the traced replay against core.HashJoin with the
// serial and the 2-worker kernel: the trace hook fails on any difference
// in cycles, DRAM bytes or matches.
func TestJoinReplay(t *testing.T) {
	for _, workers := range []int{1, 2} {
		in, _ := setupJoin(5, true)
		in.reset()
		res, err := in.run(workers)
		if err != nil {
			t.Fatal(err)
		}
		want := countsOf(res, in)
		in.reset()
		tr := newTracer()
		res, err = in.trace(workers, tr)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got := countsOf(res, in); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: replay counts %+v, HashJoin %+v", workers, got.brief(), want.brief())
		}
		for _, phase := range []string{"partition", "build", "probe"} {
			if tr.counts["core."+phase+".cycles"] <= 0 || tr.spans["core."+phase+".host_s"] <= 0 {
				t.Errorf("%d workers: phase %s has no cycles or no span", workers, phase)
			}
		}
		if tr.counts["sim.link.flits"] <= 0 || tr.counts["spad.requests"] <= 0 || tr.counts["dram.bytes"] <= 0 {
			t.Errorf("%d workers: replay counters missing: %v", workers, tr.counts)
		}
	}
}

func TestDeterminismCheckFails(t *testing.T) {
	in, _ := setupAggregate(2, true)
	c := &caller{w: workloads[1], seed: 2}
	in.reset()
	res, err := in.run(1)
	if err != nil {
		t.Fatal(err)
	}
	sc := countsOf(res, in)
	if err := c.check(in, sc); err != nil {
		t.Fatal(err)
	}
	sc.Cycles++
	if err := c.check(in, sc); !errors.Is(err, errNondeterministic) {
		t.Fatalf("a one-cycle difference gave %v, want errNondeterministic", err)
	}
}

func TestCompareRefusesOtherCPUCount(t *testing.T) {
	rep := func(nproc int, cycles float64) report {
		return report{Host: hostFacts{NProc: nproc}, Workload: "join", Result: outcome{
			Metrics: map[string]metricValue{"sim_cycles": {Value: cycles, Unit: "cycles"}}}}
	}
	if got := compareReports(rep(1, 10), rep(2, 10)); got != 2 {
		t.Errorf("nproc 1 vs 2: exit %d, want 2 (refused)", got)
	}
	if got := compareReports(rep(2, 10), rep(2, 11)); got != 0 {
		t.Errorf("same nproc, model changed: exit %d, want 0", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to what the workload and
// metric tables render (regenerate with "aurochs-perfbench spec").
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with the spec subcommand:\n%s", want)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}
