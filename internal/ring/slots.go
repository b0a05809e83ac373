package ring

// Slots is a slot arena: a slice of T whose released slots are handed out
// again, so it grows only to the most slots ever live at once and then
// stays put. It holds the per-request state of components with requests in
// flight (the HBM's reads, the DRAM nodes' threads), which then pass int32
// slot handles — DRAM request tags — instead of pointers or closures. The
// zero value is an empty arena ready for use. It is not synchronized.
type Slots[T any] struct {
	s    []T
	free []int32
}

// Alloc returns a free slot, growing the arena when none is free. A reused
// slot keeps whatever its previous user left in it, so buffers a slot owns
// are reused too.
func (a *Slots[T]) Alloc() int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		return i
	}
	var zero T
	a.s = append(a.s, zero) // lint:hotalloc-ok grows to the most slots ever live, then stays put
	return int32(len(a.s) - 1)
}

// Release returns slot i for reuse.
func (a *Slots[T]) Release(i int32) {
	a.free = append(a.free, i) // lint:hotalloc-ok the free stack never outgrows the arena
}

// At returns a pointer to slot i. The pointer is valid until the next Alloc,
// which may grow the arena and move it: index again rather than keep it.
func (a *Slots[T]) At(i int32) *T { return &a.s[i] }
