// Package dram models the HBM main memory behind the Aurochs fabric. The
// paper uses Ramulator for cycle-accurate HBM simulation; this model keeps
// the properties the evaluation depends on — bandwidth saturation shared by
// all pipelines, burst granularity, and row-buffer locality that makes
// dense streaming much cheaper than sparse scatter/gather — while
// simplifying DDR command timing to a hit/miss latency pair.
//
// Defaults approximate a 1 TB/s HBM2e part at the fabric's 1 GHz clock:
// 16 pseudo-channels × 64 B bursts × 1 burst/cycle/channel = 1024 B/cycle.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"aurochs/internal/ring"
)

// Config sizes the HBM model.
type Config struct {
	// Channels is the pseudo-channel count (power of two).
	Channels int
	// BanksPerChannel is the banks each channel interleaves across.
	BanksPerChannel int
	// RowWords is the row-buffer size in 32-bit words (1 KiB row = 256).
	RowWords int
	// BurstWords is the access granularity in words (64 B burst = 16).
	BurstWords int
	// RowHitLatency is the load-to-use latency for an open row, cycles.
	RowHitLatency int
	// RowMissPenalty is added on a row-buffer miss (precharge+activate).
	RowMissPenalty int
	// BurstCycles is the channel occupancy of one burst.
	BurstCycles int
	// QueueDepth is the per-channel request queue depth.
	QueueDepth int
}

// DefaultConfig returns the HBM configuration used throughout the repo.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		BanksPerChannel: 16,
		RowWords:        256,
		BurstWords:      16,
		RowHitLatency:   64,
		RowMissPenalty:  32,
		BurstCycles:     1,
		QueueDepth:      32,
	}
}

func (c *Config) validate() error {
	if c.Channels <= 0 || c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("dram: channels must be a power of two, got %d", c.Channels)
	}
	if c.BurstWords <= 0 || c.BurstWords&(c.BurstWords-1) != 0 {
		return fmt.Errorf("dram: burst words must be a power of two, got %d", c.BurstWords)
	}
	if c.BurstWords > pageWords {
		return fmt.Errorf("dram: burst words %d exceed the %d-word backing page", c.BurstWords, pageWords)
	}
	if c.RowWords%c.BurstWords != 0 {
		return fmt.Errorf("dram: row words %d not a multiple of burst words %d", c.RowWords, c.BurstWords)
	}
	return nil
}

// PeakBytesPerCycle returns the theoretical bandwidth of this config.
func (c Config) PeakBytesPerCycle() float64 {
	return float64(c.Channels) * float64(c.BurstWords) * 4 / float64(c.BurstCycles)
}

// Request is one memory operation: Words 32-bit words at word address Addr.
// At completion the model calls To.Complete(Tag, data) — the tagged path
// every fabric node uses — or, when To is nil, Done(data): the untagged
// path kept for drivers and tests that build requests by hand. Reads
// complete with the read data; posted writes complete inside SubmitAt with
// nil. Either way data is borrowed (see Completer).
type Request struct {
	Addr  uint32
	Words int
	Write bool
	Data  []uint32
	To    Completer
	Tag   int32
	Done  func(data []uint32)
}

// Completer receives request completions by tag. An issuing node keeps its
// per-request state in a slot arena of its own and encodes the slot in the
// tag, so a request costs no closure and no per-request allocation.
//
// data is borrowed: it belongs to the HBM's request slot and is valid only
// until Complete returns, after which the model reuses it for a later
// request. Complete may copy it, or submit new requests, but must not keep
// it.
type Completer interface {
	Complete(tag int32, data []uint32)
}

// burst is one burst-sized piece of a request in a channel queue. req is
// the read's slot in HBM.reqs, or -1 for a write-buffer eviction.
type burst struct {
	req       int32
	addr      uint32 // word address of burst start
	bank, row int
}

// pendingReq is an in-flight read. Its slot in HBM.reqs, and the data
// buffer the slot owns, are reused once the read has completed.
type pendingReq struct {
	addr      uint32
	remaining int
	to        Completer
	tag       int32
	done      func(data []uint32)
	data      []uint32
}

type channel struct {
	queue   ring.Queue[burst]
	busy    int64 // channel free at this cycle
	openRow []int // per-bank open row (-1 closed)
	wb      writeBuf
}

// Write-buffer geometry: wbCap bursts per channel (a few KiB of combining
// storage), flushed after wbFlushAge cycles without needing eviction.
const (
	wbCap      = 64
	wbFlushAge = 512
)

// writeBuf is a channel controller's posted-write combining buffer: up to
// wbCap resident bursts, each a (burst address, insertion cycle) pair held
// in fixed arrays. Writes to a resident burst merge for free; entries
// retire to the channel queue on eviction or age-out. Slot order carries
// no meaning — removal moves the last entry into the hole — because the
// only order the model observes is the deterministic (age, address)
// minimum, cached in min.
type writeBuf struct {
	addr [wbCap]uint32
	at   [wbCap]int64
	n    int
	// min is the slot of the (insertion cycle, address) minimum — the
	// eviction victim and the next age-out candidate — valid when n > 0.
	// It keeps the per-tick age check O(1) and is rebuilt only when the
	// minimum itself is removed or refreshed.
	min int
}

// find returns the slot holding burst address a, or -1.
func (w *writeBuf) find(a uint32) int {
	for i, x := range w.addr[:w.n] {
		if x == a {
			return i
		}
	}
	return -1
}

// less reports whether slot i precedes slot j in (age, address) order.
func (w *writeBuf) less(i, j int) bool {
	return w.at[i] < w.at[j] || (w.at[i] == w.at[j] && w.addr[i] < w.addr[j])
}

// recomputeMin rebuilds the cached minimum by a scan of the resident slots.
func (w *writeBuf) recomputeMin() {
	w.min = 0
	for i := 1; i < w.n; i++ {
		if w.less(i, w.min) {
			w.min = i
		}
	}
}

// oldest returns the insertion cycle of the minimum entry and whether any
// entry is resident.
func (w *writeBuf) oldest() (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	return w.at[w.min], true
}

// remove deletes slot i and returns its burst address.
func (w *writeBuf) remove(i int) uint32 {
	a := w.addr[i]
	w.n--
	w.addr[i], w.at[i] = w.addr[w.n], w.at[w.n]
	switch {
	case i == w.min:
		w.recomputeMin()
	case w.min == w.n:
		w.min = i // the minimum was the last slot, now moved into the hole
	}
	return a
}

// HBM is the memory device plus its channel scheduler. It is ticked by the
// owning system once per cycle; fabric nodes call Submit.
type HBM struct {
	cfg   Config
	chans []*channel
	pages map[uint32][]uint32

	burstShift uint
	chanMask   uint32
	// inflight holds issued bursts awaiting completion, one FIFO per
	// latency class (row hit, row miss). A burst completes a fixed latency
	// after issue and issue cycles never decrease, so each FIFO is sorted
	// by due cycle; retire merges their due heads by issue sequence, which
	// is the order the bursts were issued in.
	inflight [2]ring.Queue[completion]
	issued   int64 // issue sequence number of the next burst
	now      int64
	need     []int // scratch for SubmitAt's per-channel reservation tally

	// reqs is the slot arena of in-flight reads. Slots, and the data
	// buffers they own, are reused, so it grows only until it covers the
	// most reads ever in flight.
	reqs ring.Slots[pendingReq]

	// Stats
	ReadBursts  int64
	WriteBursts int64
	RowHits     int64
	RowMisses   int64
	Stalls      int64
	// CoalescedWrites counts write bursts absorbed by the controller's
	// write-combining buffer (no extra channel occupancy).
	CoalescedWrites int64
}

const pageWords = 1 << 16 // 256 KiB pages, allocated on demand

// New builds an HBM instance.
func New(cfg Config) *HBM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	h := &HBM{
		cfg:        cfg,
		pages:      make(map[uint32][]uint32),
		burstShift: uint(bits.TrailingZeros32(uint32(cfg.BurstWords))),
		chanMask:   uint32(cfg.Channels - 1),
		need:       make([]int, cfg.Channels),
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{openRow: make([]int, cfg.BanksPerChannel)}
		for b := range ch.openRow {
			ch.openRow[b] = -1
		}
		h.chans = append(h.chans, ch)
	}
	// Size each completion FIFO for its class's most bursts in flight —
	// one issue per channel per BurstCycles over the class latency — so the
	// cycle loop never grows them.
	per := func(lat int) int {
		return cfg.Channels * (lat/max(cfg.BurstCycles, 1) + 1)
	}
	h.inflight[0].Reserve(per(cfg.RowHitLatency))
	h.inflight[1].Reserve(per(cfg.RowHitLatency + cfg.RowMissPenalty))
	return h
}

// Config returns the model's configuration.
func (h *HBM) Config() Config { return h.cfg }

// page returns the backing page for addr, allocating on first touch.
func (h *HBM) page(addr uint32) []uint32 {
	id := addr / pageWords
	p := h.pages[id]
	if p == nil {
		p = make([]uint32, pageWords)
		h.pages[id] = p
	}
	return p
}

// ReadWord performs an untimed functional read (setup and verification).
func (h *HBM) ReadWord(addr uint32) uint32 {
	return h.page(addr)[addr%pageWords]
}

// WriteWord performs an untimed functional write (setup and verification).
func (h *HBM) WriteWord(addr uint32, v uint32) {
	h.page(addr)[addr%pageWords] = v
}

// LoadWords copies data into memory starting at base (untimed).
func (h *HBM) LoadWords(base uint32, data []uint32) {
	for len(data) > 0 {
		off := base % pageWords
		n := copy(h.page(base)[off:], data)
		data = data[n:]
		base += uint32(n)
	}
}

// SnapshotWords reads n words starting at base (untimed).
func (h *HBM) SnapshotWords(base uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = h.ReadWord(base + uint32(i))
	}
	return out
}

// locate maps a burst-aligned word address to (channel, bank, row).
func (h *HBM) locate(addr uint32) (ch, bank, row int) {
	burstIdx := addr >> h.burstShift
	ch = int(burstIdx & h.chanMask)
	local := burstIdx >> uint(bits.TrailingZeros32(uint32(h.cfg.Channels)))
	burstsPerRow := uint32(h.cfg.RowWords / h.cfg.BurstWords)
	row = int(local / burstsPerRow)
	bank = row % h.cfg.BanksPerChannel
	return ch, bank, row
}

// Submit enqueues a request using the clock of the most recent Tick for
// write timestamps. Ticking components must prefer SubmitAt: with
// event-driven scheduling the HBM may legally skip idle Ticks, leaving the
// last-tick clock behind the caller's cycle. Submit remains for untimed
// setup and tests that tick the model themselves.
func (h *HBM) Submit(req Request) bool {
	return h.SubmitAt(h.now, req)
}

// SubmitAt enqueues a request at cycle now, splitting it into bursts. It
// returns false (and enqueues nothing) when any needed channel queue lacks
// space — callers stall and retry, which is how DRAM backpressure
// propagates into the fabric.
func (h *HBM) SubmitAt(now int64, req Request) bool {
	if req.Words <= 0 {
		panic("dram: request with no words")
	}
	if req.Write && len(req.Data) != req.Words {
		panic("dram: write data length mismatch")
	}
	first := req.Addr >> h.burstShift
	last := (req.Addr + uint32(req.Words) - 1) >> h.burstShift
	n := int(last - first + 1)

	// Reserve queue space across all involved channels first. Writes are
	// absorbed by the combining buffer but their evictions land in the
	// same queues, so both directions respect the depth. The per-channel
	// need tally lives in a reused scratch slice, not a per-call
	// allocation.
	need := h.need
	for i := range need {
		need[i] = 0
	}
	for b := first; b <= last; b++ {
		ch, _, _ := h.locate(b << h.burstShift)
		need[ch]++
	}
	for ch, k := range need {
		if k > 0 && h.chans[ch].queue.Len()+k > h.cfg.QueueDepth {
			h.Stalls++
			return false
		}
	}

	if req.Write {
		// Posted write: data lands in the controller's write-combining
		// buffer and the requester is acknowledged immediately. Bursts
		// retire to the channel (costing bandwidth) on eviction or
		// age-out — which is what makes the dense partition format
		// cheap (paper fig. 7b): consecutive slots of a block merge
		// into full bursts before ever touching DRAM.
		h.LoadWords(req.Addr, req.Data)
		for b := first; b <= last; b++ {
			addr := b << h.burstShift
			ch, _, _ := h.locate(addr)
			h.postWrite(h.chans[ch], addr, now)
		}
		if req.To != nil {
			req.To.Complete(req.Tag, nil)
		} else if req.Done != nil {
			req.Done(nil)
		}
		return true
	}
	slot := h.reqs.Alloc()
	p := h.reqs.At(slot)
	p.addr, p.remaining, p.to, p.tag, p.done = req.Addr, n, req.To, req.Tag, req.Done
	if cap(p.data) < req.Words {
		p.data = make([]uint32, req.Words)
	}
	p.data = p.data[:req.Words]
	for b := first; b <= last; b++ {
		addr := b << h.burstShift
		ch, bank, row := h.locate(addr)
		h.chans[ch].queue.Push(burst{req: slot, addr: addr, bank: bank, row: row})
	}
	return true
}

// postWrite inserts a burst into a channel's write buffer at cycle now,
// coalescing hits and evicting the oldest entry to the channel queue when
// full.
func (h *HBM) postWrite(c *channel, addr uint32, now int64) {
	w := &c.wb
	if i := w.find(addr); i >= 0 {
		h.CoalescedWrites++
		w.at[i] = now
		if i == w.min {
			// The refreshed entry may no longer be the minimum.
			w.recomputeMin()
		}
		return
	}
	if w.n == wbCap {
		// Victim is the deterministic (age, address) minimum — the cache.
		h.evictWrite(c, w.min)
	}
	i := w.n
	w.addr[i], w.at[i] = addr, now
	w.n++
	if i == 0 || w.less(i, w.min) {
		w.min = i
	}
}

// evictWrite moves the write burst in buffer slot i into the channel queue.
func (h *HBM) evictWrite(c *channel, i int) {
	addr := c.wb.remove(i)
	_, bank, row := h.locate(addr)
	c.queue.Push(burst{req: -1, addr: addr, bank: bank, row: row})
}

// completion is an issued burst: due at cycle at, seq-th in issue order.
type completion struct {
	at  int64
	seq int64
	b   burst
}

// Tick advances every channel one cycle: flush aged write-buffer entries,
// issue at most one burst per free channel, retire elapsed bursts.
func (h *HBM) Tick(cycle int64) {
	h.now = cycle
	for _, ch := range h.chans {
		// Age-out flush: one entry per cycle at most, always the cached
		// (age, address) minimum — if the oldest entry is not aged, nothing is.
		if at, ok := ch.wb.oldest(); ok && ch.queue.Len() < h.cfg.QueueDepth && cycle-at > wbFlushAge {
			h.evictWrite(ch, ch.wb.min)
		}
		if ch.queue.Len() == 0 || ch.busy > cycle {
			continue
		}
		b := ch.queue.Front()
		class, lat := 0, h.cfg.RowHitLatency
		if ch.openRow[b.bank] != b.row {
			class, lat = 1, lat+h.cfg.RowMissPenalty
			ch.openRow[b.bank] = b.row
			h.RowMisses++
		} else {
			h.RowHits++
		}
		*h.inflight[class].PushRefDirty() = completion{at: cycle + int64(lat), seq: h.issued, b: *b}
		h.issued++
		ch.queue.Drop()
		ch.busy = cycle + int64(h.cfg.BurstCycles)
	}
	h.retire(cycle)
}

// retire completes every burst due by cycle, in issue order, and fires
// request callbacks.
func (h *HBM) retire(cycle int64) {
	hits, misses := &h.inflight[0], &h.inflight[1]
	for {
		q := hits
		hitDue := hits.Len() > 0 && hits.Front().at <= cycle
		if misses.Len() > 0 && misses.Front().at <= cycle && (!hitDue || misses.Front().seq < hits.Front().seq) {
			q = misses
		} else if !hitDue {
			return
		}
		b := q.Front().b
		q.Drop()
		h.finishBurst(b)
	}
}

func (h *HBM) finishBurst(b burst) {
	if b.req < 0 {
		// A write-buffer eviction: pure timing traffic.
		h.WriteBursts++
		return
	}
	// Only reads are queued with a request: posted writes are acknowledged
	// at submit and reach the queue as evictions.
	p := h.reqs.At(b.req)
	end := p.addr + uint32(len(p.data))
	lo := max(b.addr, p.addr)
	hi := min(b.addr+uint32(h.cfg.BurstWords), end)
	// A burst never straddles a page: both are power-of-two aligned.
	off := lo % pageWords
	copy(p.data[lo-p.addr:hi-p.addr], h.page(lo)[off:off+(hi-lo)])
	h.ReadBursts++
	p.remaining--
	if p.remaining > 0 {
		return
	}
	// The callback may submit, which can grow h.reqs and move p: read the
	// slot out first and index the arena again afterwards.
	to, tag, done, data := p.to, p.tag, p.done, p.data
	if to != nil {
		to.Complete(tag, data)
	} else if done != nil {
		done(data)
	}
	q := h.reqs.At(b.req)
	q.to, q.done = nil, nil
	h.reqs.Release(b.req)
}

// ResetClock rebases the model's absolute-cycle state to zero so a new
// simulation (sharing this HBM across kernel phases) can start its clock
// from scratch. Queues and in-flight requests must be drained; row-buffer
// state persists (locality across phases is real).
func (h *HBM) ResetClock() {
	if !h.Drained() {
		panic("dram: ResetClock with work in flight")
	}
	for _, ch := range h.chans {
		ch.busy = 0
		clear(ch.wb.at[:ch.wb.n])
		ch.wb.recomputeMin()
	}
	h.now = 0
}

// WorstCaseInternalLatency bounds how many cycles the HBM can hold work
// without any fabric-visible completion: a full channel queue draining at
// one burst per BurstCycles, the slowest single access (row miss), a full
// write buffer's evictions, and the write-buffer age-out horizon. The sim
// runner sums this into its deadlock grace window — the reason a deep
// queue with a large RowMissPenalty can no longer be misreported as
// deadlock by a hard-coded constant.
func (h *HBM) WorstCaseInternalLatency() int64 {
	perBurst := int64(h.cfg.RowHitLatency + h.cfg.RowMissPenalty + h.cfg.BurstCycles)
	queueDrain := int64(h.cfg.QueueDepth+wbCap) * int64(h.cfg.BurstCycles)
	return queueDrain + perBurst + wbFlushAge
}

// Idle reports whether the model is completely empty: no queued bursts,
// nothing in flight, and no resident posted writes. It is conservative —
// a resident write makes the model non-idle even though no tick will do
// anything until its age-out — so it suits callers without a clock.
// Clocked callers should prefer QuiescentAt.
func (h *HBM) Idle() bool {
	if h.inFlight() {
		return false
	}
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 || ch.wb.n > 0 {
			return false
		}
	}
	return true
}

// QuiescentAt reports whether a Tick at cycle would be a no-op: nothing
// queued or in flight, and no resident posted write old enough for its
// age-out flush to fire. Unlike Idle it is a pure function of
// (state, cycle) — resident-but-young writes do not count as work — so a
// quiescent stretch before the next age-out can be skipped entirely;
// NextWriteEvent tells the scheduler when to come back.
func (h *HBM) QuiescentAt(cycle int64) bool {
	if h.inFlight() {
		return false
	}
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 {
			return false
		}
		if at, ok := ch.wb.oldest(); ok && cycle-at > wbFlushAge {
			return false
		}
	}
	return true
}

// NextWriteEvent returns the earliest cycle at which a write-buffer
// age-out flush can fire absent further submissions, or math.MaxInt64
// when no posted writes are resident. This is the HBM's only self-timed
// event: everything else it does is a response to a submission or an
// already-issued burst, both of which keep it non-quiescent.
func (h *HBM) NextWriteEvent() int64 {
	next := int64(math.MaxInt64)
	for _, ch := range h.chans {
		if at, ok := ch.wb.oldest(); ok && at+wbFlushAge+1 < next {
			next = at + wbFlushAge + 1
		}
	}
	return next
}

// BytesMoved returns total bytes transferred so far.
func (h *HBM) BytesMoved() int64 {
	return (h.ReadBursts + h.WriteBursts) * int64(h.cfg.BurstWords) * 4
}

// Drained reports whether no request work remains queued or in flight.
// Resident write-buffer entries are posted (acknowledged) data whose
// flush-out is bookkeeping traffic; they do not block draining.
func (h *HBM) Drained() bool {
	for _, ch := range h.chans {
		if ch.queue.Len() > 0 {
			return false
		}
	}
	return !h.inFlight()
}

// inFlight reports whether any issued burst awaits completion.
func (h *HBM) inFlight() bool {
	return h.inflight[0].Len()+h.inflight[1].Len() > 0
}

// FlushWrites forces all resident write-buffer entries out (called between
// phases so traffic accounting attributes bytes to the phase that wrote
// them).
func (h *HBM) FlushWrites() {
	for _, ch := range h.chans {
		h.WriteBursts += int64(ch.wb.n)
		ch.wb.n = 0
	}
}
