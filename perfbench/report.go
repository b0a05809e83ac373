package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it. For an
// end-to-end metric, bound is the share of the baseline median by which
// it may worsen. For a per-layer metric, moves names the end-to-end
// metric and the workloads it should move (README.md carries the same
// map).
type metricSpec struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the untraced metrics, one value per workload run. Host
// times drift by about ±15% between processes on a shared 2-CPU host, so
// their bounds are the widest allowed; simulated cycles and allocations
// vary only with the seed's inputs.
var endToEnd = []metricSpec{
	{name: "host_ns_per_record", unit: "ns", better: "lower", bound: 0.25},
	{name: "cpu_ns_per_record", unit: "ns", better: "lower", bound: 0.25},
	{name: "sim_cycles", unit: "cycles", better: "lower", bound: 0.1},
	{name: "alloc_bytes_per_record", unit: "B", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "correct_frac", unit: "ratio", better: "higher", bound: 0.01},
}

// perLayer are the traced metrics.
var perLayer = []metricSpec{
	{"core.wire.host_s", "s", "lower", 0, "host_ns_per_record on join"},
	{"core.partition.host_s", "s", "lower", 0, "host_ns_per_record on join"},
	{"core.build.host_s", "s", "lower", 0, "host_ns_per_record on join"},
	{"core.probe.host_s", "s", "lower", 0, "host_ns_per_record on join"},
	{"core.partition.cycles", "cycles", "lower", 0, "sim_cycles on join"},
	{"core.build.cycles", "cycles", "lower", 0, "sim_cycles on join"},
	{"core.probe.cycles", "cycles", "lower", 0, "sim_cycles on join"},
	{"core.aggregate.host_s", "s", "lower", 0, "host_ns_per_record on aggregate"},
	{"core.btree.host_s", "s", "lower", 0, "host_ns_per_record on btree"},
	{"sim.link.flits", "count", "lower", 0, "host_ns_per_record on join"},
	{"sim.link.ns_per_hop", "ns", "lower", 0, "host_ns_per_record on join and aggregate"},
	{"sim.sched.ns_per_cycle", "ns", "lower", 0, "host_ns_per_record on btree; flat on aggregate"},
	{"fabric.filter.ns_per_record", "ns", "lower", 0, "host_ns_per_record on aggregate and btree"},
	{"fabric.merge.ns_per_record", "ns", "lower", 0, "host_ns_per_record on aggregate and btree"},
	{"fabric.sink.alloc_bytes_per_record", "B", "lower", 0, "alloc_bytes_per_record on join"},
	{"fabric.dram_stall_cycles", "cycles", "lower", 0, "sim_cycles on btree and join"},
	{"fabric.dram_reqs", "count", "lower", 0, "sim_cycles on btree and join"},
	{"fabric.expand.fetches", "count", "lower", 0, "sim_cycles on btree"},
	{"fabric.spill.spilled", "count", "lower", 0, "sim_cycles on btree"},
	{"fabric.spill.refills", "count", "lower", 0, "sim_cycles on btree"},
	{"spad.tile.ns_per_req", "ns", "lower", 0, "host_ns_per_record on aggregate and join; no spad in btree"},
	{"spad.requests", "count", "lower", 0, "sim_cycles on aggregate"},
	{"spad.conflicts_per_request", "ratio", "lower", 0, "sim_cycles on aggregate"},
	{"spad.in_stall_cycles", "cycles", "lower", 0, "sim_cycles on aggregate"},
	{"spad.out_stall_cycles", "cycles", "lower", 0, "sim_cycles on aggregate"},
	{"spad.resp_stall_cycles", "cycles", "lower", 0, "sim_cycles on aggregate"},
	{"dram.hbm.ns_per_req", "ns", "lower", 0, "host_ns_per_record on join and btree; flat on aggregate"},
	{"dram.bytes", "B", "lower", 0, "sim_cycles on join and btree"},
	{"dram.read_bursts", "count", "lower", 0, "sim_cycles on join and btree"},
	{"dram.write_bursts", "count", "lower", 0, "sim_cycles on join and btree"},
	{"dram.row_hit_ratio", "ratio", "higher", 0, "sim_cycles on join and btree"},
	{"dram.stalls", "count", "lower", 0, "sim_cycles on join and btree"},
	{"dram.coalesced_write_ratio", "ratio", "higher", 0, "sim_cycles on join and btree"},
	{"bench.gen.host_s", "s", "lower", 0, "setup_s on every workload"},
	{"bench.verify.host_s", "s", "lower", 0, "reported only"},
	{"bench.trace_overhead_ns_per_record", "ns", "lower", 0, "reported only: traced minus untraced host_ns_per_record"},
}

// hostFacts identify the machine and code a report was measured on.
// Reports from hosts with different CPU counts are never compared.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func currentHost() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one ("-dirty" marks uncommitted changes), else "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "-dirty"
	}
	return rev
}

// report is one run's full record: host facts, inputs and result.
type report struct {
	Host     hostFacts `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	// Repeats is the number of timed kernel calls behind the medians, and
	// CallNs their host_ns_per_record each (the untraced calls of a traced
	// run).
	Repeats int       `json:"repeats"`
	CallNs  []float64 `json:"call_ns_per_record"`
	// FailedFrac is the share of checked operations whose output disagreed
	// with the host reference.
	FailedFrac float64 `json:"failed_frac"`
	Result     outcome `json:"result"`
	Error      string  `json:"error,omitempty"`
	// Moves maps each reported per-layer metric to the end-to-end metric
	// and workloads it should move.
	Moves map[string]string `json:"moves,omitempty"`
}

func newReport(workload string, seed int64, trace int, calls []float64, o outcome) report {
	r := report{Host: currentHost(), Workload: workload, Seed: seed, Trace: trace, Repeats: len(calls),
		CallNs: calls, FailedFrac: float64(o.Failed) / float64(o.Attempted), Result: o}
	if trace == 1 {
		r.Moves = map[string]string{}
		for _, s := range perLayer {
			r.Moves[s.name] = s.moves
		}
	}
	return r
}

// readReport reads a report from a saved run output: the line before the
// last (or a file holding just the report line).
func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	line := lines[0]
	if len(lines) > 1 {
		line = lines[len(lines)-2]
	}
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return r, fmt.Errorf("%s: no report line: %w", path, err)
	}
	return r, nil
}

// compareMain prints new/old ratios of two reports' metrics. It refuses
// reports from hosts with different CPU counts or of different workloads,
// and it does not compare host times when the simulated cycles differ:
// a cycle change is a model change, and time per run then changes with
// the work simulated, not with the speed of the simulator.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: aurochs-perfbench compare OLD NEW (saved standard output of two runs)")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "aurochs-perfbench compare:", err)
	return 2
}

func compareReports(a, b report) int {
	switch {
	case a.Host.NProc != b.Host.NProc:
		fmt.Printf("refused: nproc %d vs %d; host times from different CPU counts are not comparable\n",
			a.Host.NProc, b.Host.NProc)
		return 2
	case a.Workload != b.Workload || a.Trace != b.Trace:
		fmt.Printf("refused: %s (trace %d) vs %s (trace %d)\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	ca, cb := a.Result.Metrics["sim_cycles"].Value, b.Result.Metrics["sim_cycles"].Value
	timesComparable := ca == cb
	if !timesComparable {
		fmt.Printf("model changed: sim_cycles %.0f -> %.0f; host times are not compared\n", ca, cb)
	}
	names := make([]string, 0, len(b.Result.Metrics))
	for n := range b.Result.Metrics {
		if _, ok := a.Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		va, vb := a.Result.Metrics[n], b.Result.Metrics[n]
		if !timesComparable && (va.Unit == "ns" || va.Unit == "s") {
			continue
		}
		r := "n/a"
		if va.Value != 0 {
			r = fmt.Sprintf("%.3fx", vb.Value/va.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %8s %s\n", n, va.Value, vb.Value, r, va.Unit)
	}
	return 0
}

// runSeconds is the measured time of one run in BENCHMARK.json: long
// enough for about ten calls of the slowest workload, short enough that
// the 92 runs of a full benchmark pass fit in under an hour.
const runSeconds = 25

// specJSON renders BENCHMARK.json from the workload and metric tables.
func specJSON() ([]byte, error) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, namedWhy{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(spec)
	return buf.Bytes(), err
}
