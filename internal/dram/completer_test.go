package dram

import (
	"math/rand"
	"testing"
)

// recorder is a Completer that copies out what each completion delivers
// and keeps the borrowed slice itself, so a test can watch the model
// reuse it.
type recorder struct {
	tags     []int32
	words    [][]uint32
	borrowed [][]uint32
}

func (r *recorder) Complete(tag int32, data []uint32) {
	r.tags = append(r.tags, tag)
	r.words = append(r.words, append([]uint32(nil), data...))
	r.borrowed = append(r.borrowed, data)
}

func runUntilDrained(t *testing.T, h *HBM, cycle *int64) {
	t.Helper()
	for limit := *cycle + 100_000; !h.Drained(); *cycle++ {
		if *cycle > limit {
			t.Fatal("HBM never drained")
		}
		h.Tick(*cycle)
	}
}

// A completion's data is borrowed: the next read into the same request
// slot overwrites it, so a Completer must copy what it keeps.
func TestCompleterDataIsBorrowed(t *testing.T) {
	h := New(DefaultConfig())
	for i := uint32(0); i < 64; i++ {
		h.WriteWord(1000+i, 100+i)
		h.WriteWord(5000+i, 500+i)
	}
	var rec recorder
	var cycle int64
	if !h.SubmitAt(cycle, Request{Addr: 1000, Words: 40, To: &rec, Tag: 7}) {
		t.Fatal("first read refused")
	}
	runUntilDrained(t, h, &cycle)
	if !h.SubmitAt(cycle, Request{Addr: 5000, Words: 40, To: &rec, Tag: 9}) {
		t.Fatal("second read refused")
	}
	runUntilDrained(t, h, &cycle)
	if len(rec.tags) != 2 || rec.tags[0] != 7 || rec.tags[1] != 9 {
		t.Fatalf("tags %v, want [7 9]", rec.tags)
	}
	for i := 0; i < 40; i++ {
		if rec.words[0][i] != 100+uint32(i) || rec.words[1][i] != 500+uint32(i) {
			t.Fatalf("word %d: got %d and %d, want %d and %d", i, rec.words[0][i], rec.words[1][i], 100+i, 500+i)
		}
	}
	if &rec.borrowed[0][0] != &rec.borrowed[1][0] {
		t.Fatal("the second read got a fresh buffer; want the first read's slot reused")
	}
	if rec.borrowed[0][0] != 500 {
		t.Fatalf("the first read's borrowed slice holds %d after the second read, want 500", rec.borrowed[0][0])
	}

	// A posted write completes inside SubmitAt, by tag, with no data.
	rec = recorder{}
	if !h.SubmitAt(cycle, Request{Addr: 9000, Words: 2, Write: true, Data: []uint32{1, 2}, To: &rec, Tag: 3}) {
		t.Fatal("write refused")
	}
	if len(rec.tags) != 1 || rec.tags[0] != 3 || rec.words[0] != nil {
		t.Fatalf("write completion tags %v data %v, want [3] and nil", rec.tags, rec.words)
	}
}

// fanOut submits two further reads from inside each completion, so the
// request arena grows while the model is inside a callback.
type fanOut struct {
	h     *HBM
	cycle *int64
	next  int32
	limit int32
	got   map[int32]uint32
}

func (f *fanOut) Complete(tag int32, data []uint32) {
	f.got[tag] = data[0]
	for k := 0; k < 2 && f.next < f.limit; k++ {
		if f.h.SubmitAt(*f.cycle, Request{Addr: uint32(f.next) * 64, Words: 33, To: f, Tag: f.next}) {
			f.next++
		}
	}
}

func TestCompleterMaySubmit(t *testing.T) {
	h := New(DefaultConfig())
	const n = 500
	for i := uint32(0); i < n; i++ {
		h.WriteWord(i*64, i^0xabc)
	}
	var cycle int64
	f := &fanOut{h: h, cycle: &cycle, next: 1, limit: n, got: map[int32]uint32{}}
	if !h.SubmitAt(cycle, Request{Addr: 0, Words: 33, To: f, Tag: 0}) {
		t.Fatal("root read refused")
	}
	for limit := int64(1_000_000); len(f.got) < n; cycle++ {
		if cycle > limit {
			t.Fatalf("%d of %d reads completed", len(f.got), n)
		}
		h.Tick(cycle)
	}
	for tag, w := range f.got {
		if w != uint32(tag)^0xabc {
			t.Fatalf("read %d returned %#x, want %#x", tag, w, uint32(tag)^0xabc)
		}
	}
}

// ticker is a Completer that counts completions.
type ticker struct{ n int }

func (c *ticker) Complete(int32, []uint32) { c.n++ }

// A read's round trip through a warmed model — submit, issue, retire,
// complete — allocates nothing: its request slot and data buffer are reused.
func TestHBMReadZeroAlloc(t *testing.T) {
	h := New(DefaultConfig())
	var c ticker
	var cycle int64
	addr := uint32(0)
	read := func() {
		if !h.SubmitAt(cycle, Request{Addr: addr, Words: 33, To: &c}) {
			t.Fatal("read refused by an idle HBM")
		}
		addr = (addr + 4099) % (1 << 20)
		runUntilDrained(t, h, &cycle)
	}
	for i := 0; i < 300; i++ {
		h.ReadWord(uint32(i) * 4099 % (1 << 20)) // touch every page the runs read
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("a warmed HBM read allocates %.1f times per request; want 0", allocs)
	}
}

// gups is the HBM half of a GUPS update mix: every completed 1-word read
// queues the word +1 to be written back.
type gups struct {
	addrs   []uint32
	wb      []uint32 // pending write-backs, (addr, value) pairs
	pending int
}

func (g *gups) Complete(tag int32, data []uint32) {
	if data == nil {
		return // a write-back's acknowledgement
	}
	g.pending--
	g.wb = append(g.wb, g.addrs[tag], data[0]+1)
}

// BenchmarkHBM/gups issues b.N random 1-word reads over a 64 MiB table and
// writes each word back +1 as soon as its read completes — the HBM half of
// the Emu Chick per-layer method's GUPS mix: every read misses its row and
// every write-back is posted to the write buffer. It reports host ns per
// update (one read plus one write) and allocations per update.
func BenchmarkHBM(b *testing.B) {
	b.Run("gups", func(b *testing.B) {
		const table = 1 << 24
		rng := rand.New(rand.NewSource(1))
		g := &gups{addrs: make([]uint32, b.N), wb: make([]uint32, 0, 1024)}
		h := New(DefaultConfig())
		for i := range g.addrs {
			g.addrs[i] = uint32(rng.Intn(table))
			h.ReadWord(g.addrs[i]) // first-touch page allocation is not timed
		}
		var word [1]uint32
		b.ReportAllocs()
		b.ResetTimer()
		next := 0
		for cycle := int64(0); next < len(g.addrs) || g.pending > 0 || len(g.wb) > 0 || !h.Drained(); cycle++ {
			for len(g.wb) > 0 {
				word[0] = g.wb[len(g.wb)-1]
				if !h.SubmitAt(cycle, Request{Addr: g.wb[len(g.wb)-2], Words: 1, Write: true, Data: word[:], To: g}) {
					break
				}
				g.wb = g.wb[:len(g.wb)-2]
			}
			for next < len(g.addrs) && len(g.wb) == 0 &&
				h.SubmitAt(cycle, Request{Addr: g.addrs[next], Words: 1, To: g, Tag: int32(next)}) {
				g.pending++
				next++
			}
			h.Tick(cycle)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
	})
}
