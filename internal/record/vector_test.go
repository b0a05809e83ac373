package record

import (
	"reflect"
	"testing"
)

// TestVectorMethodsTakePointers guards against a value receiver creeping
// back onto Vector: each call through one copies the whole ~840-byte
// vector, which once made up a quarter of the simulator's host time.
func TestVectorMethodsTakePointers(t *testing.T) {
	typ := reflect.TypeOf(Vector{})
	for i := 0; i < typ.NumMethod(); i++ {
		if m := typ.Method(i); m.Name != "String" {
			t.Errorf("Vector.%s has a value receiver; make it a pointer receiver", m.Name)
		}
	}
}

// BenchmarkVectorLanes moves the valid lanes of half-full vectors into a
// dense output vector through Valid and PushRef — a compute tile's
// per-lane inner loop — and reports host ns per vector.
func BenchmarkVectorLanes(b *testing.B) {
	var in [8]Vector
	for k := range in {
		for i := 0; i < NumLanes; i += 2 {
			in[k].Lane[i] = Make(uint32(i))
		}
		in[k].Mask = 0x5555
	}
	var out Vector
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v := &in[n%len(in)]
		out.Reset()
		for i := 0; i < NumLanes; i++ {
			if v.Valid(i) {
				*out.PushRef() = v.Lane[i]
			}
		}
	}
	b.StopTimer()
	if out.Count() != NumLanes/2 {
		b.Fatalf("count %d", out.Count())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/vector")
}
