package dram

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// cadence is how a pinned-stream phase advances the clock.
type cadence int

const (
	everyCycle  cadence = iota // tick every cycle
	skipQuiet                  // tick only when QuiescentAt says the tick does something
	everyFourth                // tick every 4th cycle, so several completions fall due per tick
)

// pinnedStream drives a fixed-seed request mix through SubmitAt/Tick and
// returns an order-sensitive digest of every Done callback (cycle, request
// id, data) together with the HBM's exported counters at each phase end.
//
// The mix covers the model's timing paths: sequential reads (row hits),
// random small reads (row misses), unaligned multi-burst reads, writes to a
// small hot set (coalescing), streaming writes (write-buffer eviction),
// idle gaps longer than the age-out horizon, FlushWrites, and ResetClock
// with writes still resident. A rejected submission is retried on the next
// tick, so channel-queue stalls are part of the stream too.
func pinnedStream(t *testing.T, cfg Config) (digest uint64, callbacks int) {
	t.Helper()
	h := New(cfg)
	rng := rand.New(rand.NewSource(7))
	d := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		d.Write(b[:])
	}
	for a := uint32(0); a < 1<<16; a++ {
		h.WriteWord(a*61, a*2654435761)
	}

	var (
		cycle   int64
		nextID  uint64
		pending *Request
		seqPtr  uint32 = 1 << 20
		wPtr    uint32 = 4 << 20
	)
	gen := func() *Request {
		id := nextID
		nextID++
		r := &Request{}
		switch k := rng.Intn(100); {
		case k < 25: // sequential reads: row hits
			r.Addr, r.Words = seqPtr, 16*(1+rng.Intn(3))
			seqPtr += uint32(r.Words)
		case k < 40: // random small reads: row misses
			r.Addr, r.Words = uint32(rng.Intn(1<<22)), 1+rng.Intn(8)
		case k < 55: // unaligned multi-burst reads
			r.Addr, r.Words = uint32(rng.Intn(1<<22))&^15+uint32(1+rng.Intn(15)), 17+rng.Intn(54)
		case k < 75: // writes to a hot set of 8 bursts: coalescing
			r.Addr, r.Words = 3<<20+uint32(rng.Intn(8))*16+uint32(rng.Intn(16)), 1+rng.Intn(16)
			r.Write = true
		case k < 95: // streaming writes, faster than age-out drains them: evictions
			r.Addr, r.Words = wPtr, 16*(1+rng.Intn(16))
			r.Write = true
			wPtr += uint32(r.Words)
		default: // one large unaligned write spanning many bursts
			r.Addr, r.Words = wPtr+uint32(rng.Intn(16)), 256+rng.Intn(256)
			r.Write = true
			wPtr += 1024
		}
		// Keep every request acceptable by an empty set of channel queues:
		// at most Channels*QueueDepth bursts from any starting offset.
		if most := cfg.Channels*cfg.QueueDepth*cfg.BurstWords - cfg.BurstWords + 1; r.Words > most {
			r.Words = most
		}
		if r.Write {
			r.Data = make([]uint32, r.Words)
			for i := range r.Data {
				r.Data[i] = rng.Uint32()
			}
		}
		r.Done = func(data []uint32) {
			callbacks++
			put(uint64(cycle))
			put(id)
			put(uint64(len(data)))
			for _, w := range data {
				put(uint64(w))
			}
		}
		return r
	}
	counters := func() {
		for _, v := range []int64{h.ReadBursts, h.WriteBursts, h.RowHits, h.RowMisses,
			h.Stalls, h.CoalescedWrites, h.BytesMoved(), h.NextWriteEvent()} {
			put(uint64(v))
		}
	}

	phases := []struct {
		cad    cadence
		active int64 // cycles with new submissions
		idle   int64 // further cycles before the phase may end
		after  func()
	}{
		{everyCycle, 6000, 2 * wbFlushAge, nil},
		{skipQuiet, 6000, 0, func() { h.FlushWrites() }},
		{everyFourth, 6000, 0, func() { h.ResetClock(); cycle = 0 }},
		{everyCycle, 3000, 2 * wbFlushAge, nil},
		{skipQuiet, 3000, 2 * wbFlushAge, nil},
	}
	for _, ph := range phases {
		step := int64(1)
		if ph.cad == everyFourth {
			step = 4
		}
		end := cycle + ph.active
		// Generate for the active window, then run until every request has
		// completed and the idle window (if any) has passed. A phase without
		// one ends with young writes still resident in the write buffer.
		for ; cycle < end+ph.idle || pending != nil || !h.Drained(); cycle += step {
			if cycle < end || pending != nil {
				if pending == nil && cycle < end && rng.Intn(10) < 6 {
					pending = gen()
				}
				if pending != nil && h.SubmitAt(cycle, *pending) {
					pending = nil
				}
			}
			if ph.cad != skipQuiet || !h.QuiescentAt(cycle) {
				h.Tick(cycle)
			}
			if cycle > 1_000_000 {
				t.Fatal("pinned stream never drained")
			}
		}
		counters()
		if ph.after != nil {
			ph.after()
		}
	}
	counters()
	return d.Sum64(), callbacks
}

// TestPinnedStream pins the model's observable behaviour — completion
// cycles, callback order, read data and every counter — on the default and
// a narrow configuration. Any change to the HBM's internals (completion
// bookkeeping, write-buffer structure) must leave both digests unchanged.
func TestPinnedStream(t *testing.T) {
	narrow := DefaultConfig()
	narrow.Channels, narrow.QueueDepth = 2, 2
	for _, tc := range []struct {
		name      string
		cfg       Config
		digest    uint64
		callbacks int
	}{
		{"default", DefaultConfig(), 0x48001ce54c16288, 11615},
		{"narrow", narrow, 0xda3ca61486d2d536, 10825},
	} {
		got, n := pinnedStream(t, tc.cfg)
		if got != tc.digest || n != tc.callbacks {
			t.Errorf("%s: digest %#x over %d callbacks, pinned %#x over %d", tc.name, got, n, tc.digest, tc.callbacks)
		}
	}
}
