package dram

import (
	"math/rand"
	"testing"
)

// benchHBM submits the b.N requests of reqs in order, as many per cycle as
// the channel queues accept, ticks the model once per cycle until every
// request has completed, and reports host ns per request. Building the
// requests and first-touch allocation of the pages they access are not
// timed.
func benchHBM(b *testing.B, reqs func(n int) []Request) {
	all := reqs(b.N)
	h := New(DefaultConfig())
	pending := 0
	for i := range all {
		r := &all[i]
		h.ReadWord(r.Addr)
		h.ReadWord(r.Addr + uint32(r.Words) - 1)
		if !r.Write {
			r.Done = func([]uint32) { pending-- }
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	next := 0
	for cycle := int64(0); next < len(all) || pending > 0 || !h.Drained(); cycle++ {
		for next < len(all) && h.SubmitAt(cycle, all[next]) {
			if !all[next].Write {
				pending++
			}
			next++
		}
		h.Tick(cycle)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
}

// BenchmarkHBMStream reads consecutive 64-word blocks: the dense readback
// of a partitioned join, bound by SubmitAt's burst split and channel issue.
func BenchmarkHBMStream(b *testing.B) {
	benchHBM(b, func(n int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Addr: uint32(i * 64), Words: 64}
		}
		return reqs
	})
}

// BenchmarkHBMRandomNodes reads random unaligned 41-word tree nodes, so
// row misses dominate and hundreds of bursts are in flight at once: the
// B-tree and R-tree walks' pattern, bound by completion retirement.
func BenchmarkHBMRandomNodes(b *testing.B) {
	benchHBM(b, func(n int) []Request {
		rng := rand.New(rand.NewSource(1))
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Addr: uint32(rng.Intn(1<<16)) * 41, Words: 41}
		}
		return reqs
	})
}

// BenchmarkHBMCoalescingWrites posts 4-word writes that fill consecutive
// bursts four writes at a time, over a footprint far larger than the write
// buffers: every burst coalesces three times and is then evicted, so the
// run is bound by write-buffer lookup, eviction and age-out.
func BenchmarkHBMCoalescingWrites(b *testing.B) {
	benchHBM(b, func(n int) []Request {
		data := make([]uint32, 4)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Addr: uint32(i * 4), Words: 4, Write: true, Data: data}
		}
		return reqs
	})
}
