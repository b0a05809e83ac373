package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aurochs/internal/core"
	"aurochs/internal/dram"
	"aurochs/internal/fabric"
	"aurochs/internal/record"
	"aurochs/internal/spad"
)

// Per-layer drivers. Each drives one layer of the simulator on its own
// through the layer's public API, the way a microbenchmark of one
// hardware unit drives it with a synthetic access pattern, and returns the
// layer's host cost per unit of work. Graph wiring and input generation
// stay outside the timed region.

// driverRepeats is how many times each driver runs; the median is kept.
const driverRepeats = 3

// seqRecs returns n one-field records 0..n-1.
func seqRecs(n int) []record.Rec {
	recs := make([]record.Rec, n)
	for i := range recs {
		recs[i] = record.Make(uint32(i))
	}
	return recs
}

// timeRun runs g and returns its host wall time in nanoseconds.
func timeRun(g *fabric.Graph) (float64, int64, error) {
	start := time.Now()
	cycles, err := g.Run(1 << 40)
	return float64(time.Since(start).Nanoseconds()), cycles, err
}

// medianOf runs fn driverRepeats times and returns the median value.
func medianOf(fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, driverRepeats)
	for i := 0; i < driverRepeats; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func expectCount(snk *fabric.Sink, n int) error {
	if snk.Count() != n {
		return fmt.Errorf("driver %s: %d of %d records arrived", snk.Name(), snk.Count(), n)
	}
	return nil
}

// driveLinks streams n records through Source → hops-1 identity Maps →
// Sink and returns host ns per record per link hop.
func driveLinks(n, hops int) (float64, error) {
	return medianOf(func() (float64, error) {
		g := fabric.NewGraph()
		prev := g.Link("l0")
		g.Add(fabric.NewSource("src", seqRecs(n), prev))
		for i := 1; i < hops; i++ {
			next := g.Link(fmt.Sprintf("l%d", i))
			g.Add(fabric.NewMap(fmt.Sprintf("map%d", i), func(*record.Rec) {}, prev, next))
			prev = next
		}
		snk := fabric.NewSink("snk", prev)
		g.Add(snk)
		ns, _, err := timeRun(g)
		if err == nil {
			err = expectCount(snk, n)
		}
		return ns / float64(n*hops), err
	})
}

// driveSched trickles vecs full vectors through one link of capacity 1 and
// latency 64, so nearly every simulated cycle is a wait, and returns host
// ns per simulated cycle: the wake/commit scheduler's cost of time passing.
func driveSched(vecs int) (float64, error) {
	return medianOf(func() (float64, error) {
		g := fabric.NewGraph()
		l := g.Sys.NewLink("trickle", 1, 64)
		g.Add(fabric.NewSource("src", seqRecs(vecs*record.NumLanes), l))
		snk := fabric.NewSink("snk", l)
		g.Add(snk)
		ns, cycles, err := timeRun(g)
		if err == nil {
			err = expectCount(snk, vecs*record.NumLanes)
		}
		return ns / float64(cycles), err
	})
}

// driveFilter routes n records through one two-way Filter into two Sinks
// and returns host ns per record.
func driveFilter(n int) (float64, error) {
	return medianOf(func() (float64, error) {
		g := fabric.NewGraph()
		in, even, odd := g.Link("in"), g.Link("even"), g.Link("odd")
		g.Add(fabric.NewSource("src", seqRecs(n), in))
		g.Add(fabric.NewFilter("parity", func(r *record.Rec) int { return int(r.Get(0) & 1) },
			in, []fabric.Output{{Link: even}, {Link: odd}}, nil))
		se, so := fabric.NewSink("even", even), fabric.NewSink("odd", odd)
		g.Add(se, so)
		ns, _, err := timeRun(g)
		if err == nil && se.Count()+so.Count() != n {
			err = fmt.Errorf("driver filter: %d of %d records arrived", se.Count()+so.Count(), n)
		}
		return ns / float64(n), err
	})
}

// driveMerge merges two Sources of n/2 records each into one Sink and
// returns host ns per record.
func driveMerge(n int) (float64, error) {
	return medianOf(func() (float64, error) {
		g := fabric.NewGraph()
		a, b, out := g.Link("a"), g.Link("b"), g.Link("out")
		g.Add(fabric.NewSource("srcA", seqRecs(n/2), a), fabric.NewSource("srcB", seqRecs(n/2), b))
		g.Add(fabric.NewMerge("merge", a, b, out))
		snk := fabric.NewSink("snk", out)
		g.Add(snk)
		ns, _, err := timeRun(g)
		if err == nil {
			err = expectCount(snk, n/2*2)
		}
		return ns / float64(n), err
	})
}

// driveSinkAlloc streams n records from a Source into a Sink and returns
// the host heap bytes allocated per record while the graph runs: the
// sink's output growth. The count is exact and repeats run to run.
func driveSinkAlloc(n int) (float64, error) {
	g := fabric.NewGraph()
	l := g.Link("l")
	g.Add(fabric.NewSource("src", seqRecs(n), l))
	snk := fabric.NewSink("snk", l)
	g.Add(snk)
	before := totalAlloc()
	_, _, err := timeRun(g)
	after := totalAlloc()
	if err == nil {
		err = expectCount(snk, n)
	}
	return float64(after-before) / float64(n), err
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// spadWords is the word capacity of the spad driver's scratchpad.
const spadWords = 1 << 14

// spadUniform draws n scratchpad addresses uniformly: the join's
// bucket-head and node accesses, whose keys are hashed and distinct.
func spadUniform(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = uint32(rng.Intn(spadWords))
	}
	return addrs
}

// spadZipf draws n scratchpad addresses from the aggregate workload's Zipf
// group distribution, each group's counter at a hashed address: the hot
// counters the aggregate's fetch-and-adds pile onto.
func spadZipf(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, aggZipfS, aggZipfV, aggGroups-1)
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = core.Hash32(uint32(z.Uint64())) % spadWords
	}
	return addrs
}

// driveSpad issues one fetch-and-add per address through a single
// scratchpad tile (a GUPS-style random read-modify-write stream) and
// returns host ns per request. The counters must sum to the request count.
func driveSpad(addrs []uint32) (float64, error) {
	recs := make([]record.Rec, len(addrs))
	for i, a := range addrs {
		recs[i] = record.Make(a)
	}
	return medianOf(func() (float64, error) {
		g := fabric.NewGraph()
		mem := spad.NewMem(16, spadWords/16, 0)
		in, out := g.Link("in"), g.Link("out")
		g.Add(fabric.NewSource("src", recs, in))
		g.Add(spad.NewTile(spad.Config{Name: "gups", ForwardRMW: true}, mem, spad.Spec{
			Op:    spad.OpFAA,
			Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
			Data:  func(*record.Rec, int) uint32 { return 1 },
			Apply: func(*record.Rec, []uint32) bool { return true },
		}, in, out, g.Stats()))
		snk := fabric.NewSink("snk", out)
		g.Add(snk)
		ns, _, err := timeRun(g)
		if err == nil {
			err = expectCount(snk, len(recs))
		}
		sum := uint32(0)
		for _, v := range mem.Snapshot(0, spadWords) {
			sum += v
		}
		if err == nil && int(sum) != len(recs) {
			err = fmt.Errorf("driver spad: counters sum to %d, want %d", sum, len(recs))
		}
		return ns / float64(len(recs)), err
	})
}

// hbmMix names a DRAM access pattern for the HBM driver.
type hbmMix int

const (
	// hbmStream writes n/2 consecutive bursts, then reads them back: the
	// join's partition scatter and dense readback.
	hbmStream hbmMix = iota
	// hbmTree interleaves random B-tree node reads with random one-word
	// read-modify-writes (GUPS): the tree walk's pointer chasing plus a
	// random-update stress of the same channels.
	hbmTree
)

// driveHBM submits n requests of the mix straight to dram.HBM.SubmitAt,
// ticking HBM.Tick once per cycle until everything has completed, and
// returns host ns per accepted request. Every read is checked against the
// words written before it.
func driveHBM(mix hbmMix, n int, seed int64) (float64, error) {
	const burst = 16
	return medianOf(func() (float64, error) {
		h := newHBM()
		rng := rand.New(rand.NewSource(seed))
		pending := 0
		var writeBack []dram.Request // RMW writes ready to submit
		var bad error
		expect := func(want uint32) func([]uint32) {
			return func(data []uint32) {
				pending--
				if data[0] != want && bad == nil {
					bad = fmt.Errorf("driver hbm: read %d, want %d", data[0], want)
				}
			}
		}
		reqs := make([]dram.Request, 0, n)
		switch mix {
		case hbmStream:
			for i := 0; i < n/2; i++ {
				data := make([]uint32, burst)
				data[0] = uint32(i)
				reqs = append(reqs, dram.Request{Addr: uint32(i * burst), Words: burst, Write: true, Data: data})
			}
			for i := 0; i < n/2; i++ {
				reqs = append(reqs, dram.Request{Addr: uint32(i * burst), Words: burst, Done: expect(uint32(i))})
			}
		case hbmTree:
			const nodeWords, nodes, table = 33, 70_000, 1 << 22
			for i := 0; i < n/2; i++ {
				reqs = append(reqs, dram.Request{Addr: uint32(rng.Intn(nodes) * nodeWords), Words: nodeWords,
					Done: expect(0)})
				addr := uint32(table + rng.Intn(table))
				reqs = append(reqs, dram.Request{Addr: addr, Words: 1, Done: func(data []uint32) {
					pending--
					writeBack = append(writeBack, dram.Request{Addr: addr, Words: 1, Write: true,
						Data: []uint32{data[0] + 1}})
				}})
			}
		}
		accepted := 0
		start := time.Now()
		cycle := int64(0)
		for next := 0; next < len(reqs) || pending > 0 || len(writeBack) > 0 || !h.Drained(); cycle++ {
			for len(writeBack) > 0 && h.SubmitAt(cycle, writeBack[0]) {
				writeBack = writeBack[1:]
				accepted++
			}
			for next < len(reqs) && len(writeBack) == 0 && h.SubmitAt(cycle, reqs[next]) {
				if !reqs[next].Write {
					pending++
				}
				next++
				accepted++
			}
			h.Tick(cycle)
		}
		ns := float64(time.Since(start).Nanoseconds())
		return ns / float64(accepted), bad
	})
}

// driverResults runs every layer driver with the address mixes of workload
// w and returns the per-layer metrics they give.
func driverResults(w *workload, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	spadAddrs, mix := spadUniform(seed, 1<<16), hbmStream
	switch w.name {
	case "aggregate":
		spadAddrs = spadZipf(seed, 1<<16)
	case "btree":
		mix = hbmTree
	}
	drivers := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"sim.link.ns_per_hop", func() (float64, error) { return driveLinks(1<<15, 8) }},
		{"sim.sched.ns_per_cycle", func() (float64, error) { return driveSched(1 << 11) }},
		{"fabric.filter.ns_per_record", func() (float64, error) { return driveFilter(1 << 16) }},
		{"fabric.merge.ns_per_record", func() (float64, error) { return driveMerge(1 << 16) }},
		{"fabric.sink.alloc_bytes_per_record", func() (float64, error) { return driveSinkAlloc(1 << 16) }},
		{"spad.tile.ns_per_req", func() (float64, error) { return driveSpad(spadAddrs) }},
		{"dram.hbm.ns_per_req", func() (float64, error) { return driveHBM(mix, 1<<16, seed) }},
	}
	for _, d := range drivers {
		runtime.GC()
		v, err := d.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out[d.name] = v
	}
	return out, nil
}
