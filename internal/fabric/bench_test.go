package fabric

import (
	"runtime"
	"testing"

	"aurochs/internal/dram"
	"aurochs/internal/record"
)

// BenchmarkFilter routes b.N one-field records through a two-way Filter
// into two Sinks and reports host ns per record. "split" sends alternate
// records to alternate outputs, so every vector is re-packed through the
// per-output accumulators; "uniform" sends every record to one output,
// taking the dense whole-vector path. Graph construction is not timed.
func BenchmarkFilter(b *testing.B) {
	for _, bc := range []struct {
		name  string
		route func(*record.Rec) int
	}{
		{"split", func(r *record.Rec) int { return int(r.Get(0) & 1) }},
		{"uniform", func(*record.Rec) int { return 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			recs := make([]record.Rec, b.N)
			for i := range recs {
				recs[i] = record.Make(uint32(i))
			}
			g := NewGraph()
			in, even, odd := g.Link("in"), g.Link("even"), g.Link("odd")
			g.Add(NewSource("src", recs, in))
			g.Add(NewFilter("route", bc.route, in, []Output{{Link: even}, {Link: odd}}, nil))
			se, so := NewSink("even", even), NewSink("odd", odd)
			g.Add(se, so)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := g.Run(1 << 40); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if n := se.Count() + so.Count(); n != b.N {
				b.Fatalf("%d of %d records arrived", n, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
		})
	}
}

// BenchmarkDRAMNode streams b.N threads through a DRAMNode on the default
// HBM — Source, node, Sink — and reports host ns and heap allocations per
// DRAM request for a 1-word read, a 2-word write and a 1-word FAA. Graph
// construction, the input records and the sink's output buffer are not
// timed.
func BenchmarkDRAMNode(b *testing.B) {
	for _, c := range dramNodeSpecs() {
		b.Run(c.name, func(b *testing.B) {
			recs := make([]record.Rec, b.N)
			for i := range recs {
				recs[i] = record.Make(uint32(i), 0)
			}
			g := pinGraph(dram.New(dram.DefaultConfig()))
			in, out := g.Link("in"), g.Link("out")
			g.Add(NewSource("src", recs, in))
			NewDRAMNode(g, "n", c.spec, in, out)
			snk := NewSink("snk", out).Reserve(b.N)
			g.Add(snk)
			for i := uint32(0); i < 1<<20; i += 1 << 16 {
				g.HBM.ReadWord(i) // first-touch page allocation is not timed
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			if _, err := g.Run(1 << 40); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if snk.Count() != b.N {
				b.Fatalf("%d of %d requests completed", snk.Count(), b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/req")
		})
	}
}
