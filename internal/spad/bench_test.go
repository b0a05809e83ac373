package spad

import (
	"math/rand"
	"testing"

	"aurochs/internal/record"
	"aurochs/internal/sim"
)

// countSink drains a link and counts the records it sees, without keeping
// them, so a benchmark times the tile rather than output growth.
type countSink struct {
	in  *sim.Link
	n   int
	eos bool
}

func (s *countSink) Name() string { return "count" }
func (s *countSink) Done() bool   { return s.eos }
func (s *countSink) Tick(int64) {
	for !s.in.Empty() {
		f := s.in.Peek()
		s.in.Drop()
		if f.EOS {
			s.eos = true
			return
		}
		s.n += f.Vec.Count()
	}
}

// BenchmarkTile streams b.N requests through one tile over a 16-bank,
// 16K-word Mem between a source and a counting sink, and reports host ns
// per request (accept, allocate, grant, retire and emit, plus the two
// links' transport). "faa-uniform" spreads FAAs over every word;
// "faa-zipf" is GUPS-style random update with Zipf-skewed addresses, so a
// few hot banks serialize the allocator; "read4" gathers 4-word nodes;
// "faa-inorder" is the uniform FAA under Capstan's in-order dequeue.
// Building the request vectors is not timed.
func BenchmarkTile(b *testing.B) {
	faa := Spec{
		Op:    OpFAA,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) },
		Data:  func(*record.Rec, int) uint32 { return 1 },
		Apply: func(r *record.Rec, resp []uint32) bool { r.Put(1, resp[0]); return true },
	}
	read4 := Spec{
		Op:    OpRead,
		Width: 4,
		Addr:  func(r *record.Rec) uint32 { return r.Get(0) &^ 3 },
		Apply: func(r *record.Rec, resp []uint32) bool { r.Put(1, resp[0]^resp[3]); return true },
	}
	inOrder := DefaultConfig("tile")
	inOrder.InOrder = true
	const words = 16 * 1024
	uniform := func(rng *rand.Rand) func() uint32 {
		return func() uint32 { return uint32(rng.Intn(words)) }
	}
	zipf := func(rng *rand.Rand) func() uint32 {
		z := rand.NewZipf(rng, 1.1, 1, words-1)
		return func() uint32 { return uint32(z.Uint64()) }
	}
	for _, bc := range []struct {
		name      string
		cfg       Config
		spec      Spec
		lineShift uint
		addrs     func(*rand.Rand) func() uint32
	}{
		{"faa-uniform", DefaultConfig("tile"), faa, 0, uniform},
		{"faa-zipf", DefaultConfig("tile"), faa, 0, zipf},
		{"read4", DefaultConfig("tile"), read4, 2, uniform},
		{"faa-inorder", inOrder, faa, 0, uniform},
	} {
		b.Run(bc.name, func(b *testing.B) {
			next := bc.addrs(rand.New(rand.NewSource(1)))
			recs := make([]record.Rec, b.N)
			for i := range recs {
				recs[i] = record.Make(next(), 0)
			}
			sys := sim.NewSystem()
			in := sys.NewLink("in", 8, 1)
			out := sys.NewLink("out", 8, 1)
			snk := &countSink{in: out}
			sys.Add(&vecSource{out: in, vecs: record.Vectorize(recs)})
			sys.Add(NewTile(bc.cfg, NewMem(16, words/16, bc.lineShift), bc.spec, in, out, sys.Stats()))
			sys.Add(snk)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := sys.Run(1 << 40); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if snk.n != b.N {
				b.Fatalf("%d of %d requests completed", snk.n, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/req")
		})
	}
}
